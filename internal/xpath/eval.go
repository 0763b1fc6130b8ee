package xpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/xmldom"
)

// evalCtx carries the XPath evaluation context: the context node plus the
// context position and size used by position()/last() and numeric
// predicates.
type evalCtx struct {
	node node
	pos  int
	size int
}

type evaluator struct{}

func (ev *evaluator) eval(e exprNode, ctx evalCtx) (value, error) {
	switch t := e.(type) {
	case *literal:
		return t.v, nil
	case *negExpr:
		v, err := ev.eval(t.operand, ctx)
		if err != nil {
			return nil, err
		}
		return numVal(-toNumber(v)), nil
	case *binaryExpr:
		return ev.evalBinary(t, ctx)
	case *funcCall:
		return functions[t.name](ev, ctx, t.args)
	case *pathExpr:
		return ev.evalPath(t, ctx)
	case *filterExpr:
		return ev.evalFilter(t, ctx)
	}
	return nil, fmt.Errorf("xpath: internal: unknown expression kind %T", e)
}

func (ev *evaluator) evalBinary(b *binaryExpr, ctx evalCtx) (value, error) {
	// Short-circuit logical operators per spec.
	switch b.op {
	case opOr, opAnd:
		l, err := ev.eval(b.left, ctx)
		if err != nil {
			return nil, err
		}
		lb := toBool(l)
		if (b.op == opOr && lb) || (b.op == opAnd && !lb) {
			return boolVal(lb), nil
		}
		r, err := ev.eval(b.right, ctx)
		if err != nil {
			return nil, err
		}
		return boolVal(toBool(r)), nil
	}

	l, err := ev.eval(b.left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(b.right, ctx)
	if err != nil {
		return nil, err
	}
	switch b.op {
	case opEq, opNeq, opLt, opLte, opGt, opGte:
		return boolVal(compare(b.op, l, r)), nil
	case opAdd:
		return numVal(toNumber(l) + toNumber(r)), nil
	case opSub:
		return numVal(toNumber(l) - toNumber(r)), nil
	case opMul:
		return numVal(toNumber(l) * toNumber(r)), nil
	case opDiv:
		return numVal(toNumber(l) / toNumber(r)), nil
	case opMod:
		return numVal(math.Mod(toNumber(l), toNumber(r))), nil
	case opUnion:
		ln, ok1 := l.(nodeSet)
		rn, ok2 := r.(nodeSet)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("xpath: operands of '|' must be node-sets")
		}
		return docOrder(append(append(nodeSet{}, ln...), rn...)), nil
	}
	return nil, fmt.Errorf("xpath: internal: unknown operator %s", opNames[b.op])
}

func (ev *evaluator) evalFilter(f *filterExpr, ctx evalCtx) (value, error) {
	v, err := ev.eval(f.primary, ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(nodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: predicate applied to non-node-set value")
	}
	return ev.applyPredicates(ns, f.preds)
}

func (ev *evaluator) evalPath(p *pathExpr, ctx evalCtx) (value, error) {
	var current nodeSet
	switch {
	case p.start != nil:
		v, err := ev.eval(p.start, ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(nodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: path step applied to non-node-set value")
		}
		current = ns
	case p.absolute:
		current = nodeSet{rootOf(ctx.node)}
	default:
		current = nodeSet{ctx.node}
	}

	for _, st := range p.steps {
		if len(current) == 1 && !st.axis.reverse() {
			// One context node on a forward axis: the axis already yields
			// document order without duplicates, and predicates only drop
			// nodes, so the candidates are the step's result as they stand.
			next, err := ev.applyPredicates(axisNodes(current[0], st.axis, st.test), st.preds)
			if err != nil {
				return nil, err
			}
			current = next
			continue
		}
		next := nodeSet{}
		seen := map[node]bool{}
		for _, cn := range current {
			cands, err := ev.applyPredicates(axisNodes(cn, st.axis, st.test), st.preds)
			if err != nil {
				return nil, err
			}
			for _, n := range cands {
				if !seen[n] {
					seen[n] = true
					next = append(next, n)
				}
			}
		}
		current = docOrder(next)
	}
	return current, nil
}

// applyPredicates filters a candidate list in place, one predicate after
// the other. Candidates arrive in axis order; proximity position is 1-based
// along that order (already reversed for reverse axes by axisNodes, so
// position counts naturally here).
func (ev *evaluator) applyPredicates(cands nodeSet, preds []exprNode) (nodeSet, error) {
	for _, pred := range preds {
		out := cands[:0]
		size := len(cands)
		for i, n := range cands {
			v, err := ev.eval(pred, evalCtx{node: n, pos: i + 1, size: size})
			if err != nil {
				return nil, err
			}
			keep := false
			if num, ok := v.(numVal); ok {
				keep = float64(num) == float64(i+1)
			} else {
				keep = toBool(v)
			}
			if keep {
				out = append(out, n)
			}
		}
		cands = out
	}
	return cands, nil
}

// rootOf returns the synthetic root node above the context node's tree.
func rootOf(n node) node {
	el := n.el
	for el.Parent() != nil {
		el = el.Parent()
	}
	return rootNode(el)
}

// axisNodes returns the nodes on the given axis from cn that pass the node
// test, in proximity order (reverse axes yield nearest-first).
func axisNodes(cn node, ax axis, test nodeTest) nodeSet {
	var out nodeSet
	add := func(n node) {
		if matchTest(n, ax, test) {
			out = append(out, n)
		}
	}
	switch ax {
	case axisSelf:
		add(cn)
	case axisChild:
		switch cn.kind {
		case kindRoot:
			add(elemNode(cn.el))
		case kindElement:
			for i := range cn.el.Children {
				if ch, ok := childAt(cn.el, i); ok {
					add(ch)
				}
			}
		}
	case axisDescendant:
		out = appendDescendants(out, cn, test)
	case axisDescendantOrSelf:
		add(cn)
		out = appendDescendants(out, cn, test)
	case axisParent:
		if p, ok := cn.parent(); ok {
			add(p)
		}
	case axisAncestor, axisAncestorOrSelf:
		if ax == axisAncestorOrSelf {
			add(cn)
		}
		for p, ok := cn.parent(); ok; p, ok = p.parent() {
			add(p)
		}
	case axisAttribute:
		if cn.kind == kindElement {
			for i := range cn.el.Attrs {
				add(node{kind: kindAttribute, el: cn.el, attr: i})
			}
		}
	case axisFollowingSibling, axisPrecedingSibling:
		p, ok := cn.parent()
		if !ok || p.kind == kindRoot {
			return out
		}
		sibs := childNodes(p)
		idx := -1
		for i, s := range sibs {
			if s == cn {
				idx = i
				break
			}
		}
		if idx < 0 {
			return out
		}
		if ax == axisFollowingSibling {
			for _, s := range sibs[idx+1:] {
				add(s)
			}
		} else {
			for i := idx - 1; i >= 0; i-- {
				add(sibs[i])
			}
		}
	case axisFollowing, axisPreceding:
		// Document-order walk over the whole tree, splitting around cn and
		// skipping its subtree: "following" excludes cn's descendants;
		// "preceding" excludes its ancestors (XPath 1.0 §2.2).
		ancestors := map[node]bool{}
		for p, ok := cn.parent(); ok; p, ok = p.parent() {
			ancestors[p] = true
		}
		before := true
		var walk func(n node)
		walk = func(n node) {
			switch {
			case n == cn:
				before = false
				return
			case before:
				if ax == axisPreceding && !ancestors[n] {
					add(n)
				}
			case ax == axisFollowing:
				add(n)
			}
			for _, ch := range childNodes(n) {
				walk(ch)
			}
		}
		walk(rootOf(cn))
		if ax == axisPreceding { // nearest first
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// childAt returns the XPath node for el.Children[i]: an element or a text
// node, or false for anything else the tree may hold.
func childAt(el *xmldom.Element, i int) (node, bool) {
	switch ch := el.Children[i].(type) {
	case *xmldom.Element:
		return elemNode(ch), true
	case xmldom.Text:
		return node{kind: kindText, el: el, child: i}, true
	}
	return node{}, false
}

// childNodes returns the child nodes (elements and text) of n in document
// order. Root has a single element child.
func childNodes(n node) []node {
	switch n.kind {
	case kindRoot:
		return []node{elemNode(n.el)}
	case kindElement:
		out := make([]node, 0, len(n.el.Children))
		for i := range n.el.Children {
			if ch, ok := childAt(n.el, i); ok {
				out = append(out, ch)
			}
		}
		return out
	}
	return nil
}

// appendDescendants appends the descendants of n that pass test to out in
// document order, reading each element's children in place.
func appendDescendants(out nodeSet, n node, test nodeTest) nodeSet {
	switch n.kind {
	case kindRoot:
		doc := elemNode(n.el)
		if matchTest(doc, axisDescendant, test) {
			out = append(out, doc)
		}
		return appendDescendants(out, doc, test)
	case kindElement:
		for i := range n.el.Children {
			ch, ok := childAt(n.el, i)
			if !ok {
				continue
			}
			if matchTest(ch, axisDescendant, test) {
				out = append(out, ch)
			}
			if ch.kind == kindElement {
				out = appendDescendants(out, ch, test)
			}
		}
	}
	return out
}

// matchTest applies a node test; the principal node type of the attribute
// axis is attribute, of every other axis element.
func matchTest(n node, ax axis, test nodeTest) bool {
	switch test.kind {
	case testNode:
		return true
	case testText:
		return n.kind == kindText
	case testName:
		principal := kindElement
		if ax == axisAttribute {
			principal = kindAttribute
		}
		if n.kind != principal {
			return false
		}
		name := n.name()
		if test.local != "*" && test.local != name.Local {
			return false
		}
		if test.space != "*" && test.space != name.Space {
			return false
		}
		return true
	}
	return false
}

// docOrder sorts a node-set into document order and removes duplicates.
func docOrder(ns nodeSet) nodeSet {
	if len(ns) <= 1 {
		return ns
	}
	seen := map[node]bool{}
	uniq := ns[:0]
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	keys := make(map[node][]int, len(uniq))
	for _, n := range uniq {
		keys[n] = orderKey(n)
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		return lessKey(keys[uniq[i]], keys[uniq[j]])
	})
	return uniq
}

// orderKey computes a document-position key: the path of child indices from
// the root, with attributes sorting directly after their element.
func orderKey(n node) []int {
	var key []int
	push := func(i int) { key = append(key, i) }
	switch n.kind {
	case kindAttribute:
		key = orderKey(elemNode(n.el))
		push(-1_000_000 + n.attr) // attributes precede children
		return key
	case kindText:
		key = orderKey(elemNode(n.el))
		push(n.child)
		return key
	case kindRoot:
		return nil
	}
	el := n.el
	for el.Parent() != nil {
		p := el.Parent()
		idx := 0
		for i, ch := range p.Children {
			if chEl, ok := ch.(*xmldom.Element); ok && chEl == el {
				idx = i
				break
			}
		}
		key = append(key, idx)
		el = p
	}
	key = append(key, 0) // document element position under root
	// key was built leaf-to-root; reverse it.
	for i, j := 0, len(key)-1; i < j; i, j = i+1, j-1 {
		key[i], key[j] = key[j], key[i]
	}
	return key
}

func lessKey(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// --- Core function library ---

type xpathFunc func(ev *evaluator, ctx evalCtx, args []exprNode) (value, error)

var functions map[string]xpathFunc

func init() {
	functions = map[string]xpathFunc{
		"last":     fnLast,
		"position": fnPosition,
		"count":    fnCount,
		"local-name": func(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
			n, ok, err := nodeArg(ev, ctx, args)
			if err != nil || !ok {
				return strVal(""), err
			}
			return strVal(n.name().Local), nil
		},
		"namespace-uri": func(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
			n, ok, err := nodeArg(ev, ctx, args)
			if err != nil || !ok {
				return strVal(""), err
			}
			return strVal(n.name().Space), nil
		},
		"name": func(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
			// Without prefix information we return the Clark-free local
			// name, which is what filter expressions compare against.
			n, ok, err := nodeArg(ev, ctx, args)
			if err != nil || !ok {
				return strVal(""), err
			}
			return strVal(n.name().Local), nil
		},
		"string":           fnString,
		"concat":           fnConcat,
		"starts-with":      fnStartsWith,
		"contains":         fnContains,
		"substring-before": fnSubstringBefore,
		"substring-after":  fnSubstringAfter,
		"substring":        fnSubstring,
		"string-length":    fnStringLength,
		"normalize-space":  fnNormalizeSpace,
		"translate":        fnTranslate,
		"boolean":          fnBoolean,
		"not":              fnNot,
		"true":             func(*evaluator, evalCtx, []exprNode) (value, error) { return boolVal(true), nil },
		"false":            func(*evaluator, evalCtx, []exprNode) (value, error) { return boolVal(false), nil },
		"lang":             fnLang,
		"number":           fnNumber,
		"sum":              fnSum,
		"floor":            fnFloor,
		"ceiling":          fnCeiling,
		"round":            fnRound,
	}
}

func argValues(ev *evaluator, ctx evalCtx, args []exprNode) ([]value, error) {
	out := make([]value, len(args))
	for i, a := range args {
		v, err := ev.eval(a, ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func needArgs(name string, args []exprNode, min, max int) error {
	if len(args) < min || (max >= 0 && len(args) > max) {
		return fmt.Errorf("xpath: wrong number of arguments to %s(): got %d", name, len(args))
	}
	return nil
}

// nodeArg resolves the optional node-set argument pattern used by
// local-name(), name(), namespace-uri(): no argument means context node.
func nodeArg(ev *evaluator, ctx evalCtx, args []exprNode) (node, bool, error) {
	if len(args) == 0 {
		return ctx.node, true, nil
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return node{}, false, err
	}
	ns, ok := v.(nodeSet)
	if !ok {
		return node{}, false, fmt.Errorf("xpath: argument must be a node-set")
	}
	if len(ns) == 0 {
		return node{}, false, nil
	}
	return docOrder(ns)[0], true, nil
}

func fnLast(_ *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("last", args, 0, 0); err != nil {
		return nil, err
	}
	return numVal(ctx.size), nil
}

func fnPosition(_ *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("position", args, 0, 0); err != nil {
		return nil, err
	}
	return numVal(ctx.pos), nil
}

func fnCount(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("count", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(nodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: count() requires a node-set")
	}
	return numVal(len(ns)), nil
}

func fnString(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("string", args, 0, 1); err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return strVal(ctx.node.stringValue()), nil
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	return strVal(toString(v)), nil
}

func fnConcat(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("concat", args, 2, -1); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for _, v := range vs {
		sb.WriteString(toString(v))
	}
	return strVal(sb.String()), nil
}

func fnStartsWith(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("starts-with", args, 2, 2); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	return boolVal(strings.HasPrefix(toString(vs[0]), toString(vs[1]))), nil
}

func fnContains(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("contains", args, 2, 2); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	return boolVal(strings.Contains(toString(vs[0]), toString(vs[1]))), nil
}

func fnSubstringBefore(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("substring-before", args, 2, 2); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	s, sub := toString(vs[0]), toString(vs[1])
	if i := strings.Index(s, sub); i >= 0 {
		return strVal(s[:i]), nil
	}
	return strVal(""), nil
}

func fnSubstringAfter(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("substring-after", args, 2, 2); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	s, sub := toString(vs[0]), toString(vs[1])
	if i := strings.Index(s, sub); i >= 0 {
		return strVal(s[i+len(sub):]), nil
	}
	return strVal(""), nil
}

func fnSubstring(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("substring", args, 2, 3); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	s := []rune(toString(vs[0]))
	start := math.Round(toNumber(vs[1]))
	end := math.Inf(1)
	if len(vs) == 3 {
		end = start + math.Round(toNumber(vs[2]))
	}
	if math.IsNaN(start) || math.IsNaN(end) {
		return strVal(""), nil
	}
	var sb strings.Builder
	for i, r := range s {
		p := float64(i + 1)
		if p >= start && p < end {
			sb.WriteRune(r)
		}
	}
	return strVal(sb.String()), nil
}

func fnStringLength(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("string-length", args, 0, 1); err != nil {
		return nil, err
	}
	s := ctx.node.stringValue()
	if len(args) == 1 {
		v, err := ev.eval(args[0], ctx)
		if err != nil {
			return nil, err
		}
		s = toString(v)
	}
	return numVal(len([]rune(s))), nil
}

func fnNormalizeSpace(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("normalize-space", args, 0, 1); err != nil {
		return nil, err
	}
	s := ctx.node.stringValue()
	if len(args) == 1 {
		v, err := ev.eval(args[0], ctx)
		if err != nil {
			return nil, err
		}
		s = toString(v)
	}
	return strVal(strings.Join(strings.Fields(s), " ")), nil
}

func fnTranslate(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("translate", args, 3, 3); err != nil {
		return nil, err
	}
	vs, err := argValues(ev, ctx, args)
	if err != nil {
		return nil, err
	}
	s, from, to := toString(vs[0]), []rune(toString(vs[1])), []rune(toString(vs[2]))
	mapping := map[rune]rune{}
	remove := map[rune]bool{}
	for i, r := range from {
		if _, dup := mapping[r]; dup || remove[r] {
			continue
		}
		if i < len(to) {
			mapping[r] = to[i]
		} else {
			remove[r] = true
		}
	}
	var sb strings.Builder
	for _, r := range s {
		if remove[r] {
			continue
		}
		if m, ok := mapping[r]; ok {
			sb.WriteRune(m)
		} else {
			sb.WriteRune(r)
		}
	}
	return strVal(sb.String()), nil
}

func fnBoolean(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("boolean", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	return boolVal(toBool(v)), nil
}

func fnNot(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("not", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	return boolVal(!toBool(v)), nil
}

func fnLang(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("lang", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	want := strings.ToLower(toString(v))
	xmlLang := xmldom.N("http://www.w3.org/XML/1998/namespace", "lang")
	for n, ok := ctx.node, true; ok; n, ok = n.parent() {
		if n.kind != kindElement {
			continue
		}
		if lv, present := n.el.Attr(xmlLang); present {
			got := strings.ToLower(lv)
			return boolVal(got == want || strings.HasPrefix(got, want+"-")), nil
		}
	}
	return boolVal(false), nil
}

func fnNumber(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("number", args, 0, 1); err != nil {
		return nil, err
	}
	if len(args) == 0 {
		return numVal(stringToNumber(ctx.node.stringValue())), nil
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	return numVal(toNumber(v)), nil
}

func fnSum(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("sum", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(nodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: sum() requires a node-set")
	}
	total := 0.0
	for _, n := range ns {
		total += stringToNumber(n.stringValue())
	}
	return numVal(total), nil
}

func fnFloor(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("floor", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	return numVal(math.Floor(toNumber(v))), nil
}

func fnCeiling(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("ceiling", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	return numVal(math.Ceil(toNumber(v))), nil
}

func fnRound(ev *evaluator, ctx evalCtx, args []exprNode) (value, error) {
	if err := needArgs("round", args, 1, 1); err != nil {
		return nil, err
	}
	v, err := ev.eval(args[0], ctx)
	if err != nil {
		return nil, err
	}
	f := toNumber(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return numVal(f), nil
	}
	return numVal(math.Floor(f + 0.5)), nil
}
