package xpath

// AST node types for the compiled expression tree. The evaluator walks
// these directly after one rewrite pass (fuseDescendant); expressions in
// subscription filters are small enough that no further compilation is
// warranted.

type exprNode interface{ exprKind() string }

type binaryOp int

const (
	opOr binaryOp = iota
	opAnd
	opEq
	opNeq
	opLt
	opLte
	opGt
	opGte
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opUnion
)

var opNames = map[binaryOp]string{
	opOr: "or", opAnd: "and", opEq: "=", opNeq: "!=", opLt: "<", opLte: "<=",
	opGt: ">", opGte: ">=", opAdd: "+", opSub: "-", opMul: "*", opDiv: "div",
	opMod: "mod", opUnion: "|",
}

type binaryExpr struct {
	op          binaryOp
	left, right exprNode
}

func (*binaryExpr) exprKind() string { return "binary" }

type negExpr struct{ operand exprNode }

func (*negExpr) exprKind() string { return "neg" }

// literal is a number or string literal, held as its value so that
// evaluating it allocates nothing.
type literal struct{ v value }

func (*literal) exprKind() string { return "literal" }

type funcCall struct {
	name string
	args []exprNode
}

func (*funcCall) exprKind() string { return "call" }

// axis identifies a traversal direction for a location step.
type axis int

const (
	axisChild axis = iota
	axisDescendant
	axisDescendantOrSelf
	axisSelf
	axisParent
	axisAncestor
	axisAncestorOrSelf
	axisAttribute
	axisFollowingSibling
	axisPrecedingSibling
	axisFollowing
	axisPreceding
)

var axisByName = map[string]axis{
	"child":              axisChild,
	"descendant":         axisDescendant,
	"descendant-or-self": axisDescendantOrSelf,
	"self":               axisSelf,
	"parent":             axisParent,
	"ancestor":           axisAncestor,
	"ancestor-or-self":   axisAncestorOrSelf,
	"attribute":          axisAttribute,
	"following-sibling":  axisFollowingSibling,
	"preceding-sibling":  axisPrecedingSibling,
	"following":          axisFollowing,
	"preceding":          axisPreceding,
}

// reverseAxis reports whether proximity position counts backwards.
func (a axis) reverse() bool {
	switch a {
	case axisParent, axisAncestor, axisAncestorOrSelf, axisPrecedingSibling, axisPreceding:
		return true
	}
	return false
}

// nodeTest is the test applied to candidate nodes on an axis.
type testKind int

const (
	testName testKind = iota // QName or wildcard element/attribute name
	testText                 // text()
	testNode                 // node()
)

type nodeTest struct {
	kind testKind
	// For testName: space is the resolved namespace URI ("" = no
	// namespace), local the local name; either may be "*".
	space, local string
}

type step struct {
	axis  axis
	test  nodeTest
	preds []exprNode
}

// pathExpr is a location path: optional leading expression (for paths like
// "f(x)/child"), absolute flag, and steps.
type pathExpr struct {
	absolute bool
	start    exprNode // nil for pure location paths
	steps    []step
}

func (*pathExpr) exprKind() string { return "path" }

// filterExpr is a primary expression with predicates: (expr)[pred]...
type filterExpr struct {
	primary exprNode
	preds   []exprNode
}

func (*filterExpr) exprKind() string { return "filter" }

// fuseDescendant rewrites every location path in the tree by the XPath 1.0
// §2.5 identity descendant-or-self::node()/child::T ≡ descendant::T, so
// "//T" is one descendant walk instead of a child step from every node of
// the document. A pair where either step has a predicate keeps its form:
// "//a[1]" selects each first a child, "/descendant::a[1]" only the first a.
func fuseDescendant(e exprNode) {
	switch t := e.(type) {
	case *binaryExpr:
		fuseDescendant(t.left)
		fuseDescendant(t.right)
	case *negExpr:
		fuseDescendant(t.operand)
	case *funcCall:
		for _, a := range t.args {
			fuseDescendant(a)
		}
	case *filterExpr:
		fuseDescendant(t.primary)
		for _, p := range t.preds {
			fuseDescendant(p)
		}
	case *pathExpr:
		if t.start != nil {
			fuseDescendant(t.start)
		}
		var steps []step
		for i := 0; i < len(t.steps); i++ {
			st := t.steps[i]
			for _, p := range st.preds {
				fuseDescendant(p)
			}
			if i+1 < len(t.steps) && st.axis == axisDescendantOrSelf && st.test.kind == testNode && len(st.preds) == 0 {
				if nx := t.steps[i+1]; nx.axis == axisChild && len(nx.preds) == 0 {
					st = step{axis: axisDescendant, test: nx.test}
					i++
				}
			}
			steps = append(steps, st)
		}
		t.steps = steps
	}
}
