package xpath

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmldom"
)

// genDoc builds a random document of <e>/<f> elements with val attributes.
type genDoc struct{ El *xmldom.Element }

func (genDoc) Generate(r *rand.Rand, _ int) reflect.Value {
	var build func(depth int) *xmldom.Element
	build = func(depth int) *xmldom.Element {
		names := []string{"e", "f", "g"}
		el := xmldom.NewElement(xmldom.N("", names[r.Intn(len(names))]))
		el.SetAttr(xmldom.N("", "val"), fmt.Sprint(r.Intn(100)))
		if depth > 0 {
			for i := 0; i < r.Intn(4); i++ {
				el.Append(build(depth - 1))
				if r.Intn(3) == 0 {
					el.AppendText(fmt.Sprint("t", r.Intn(10)))
				}
			}
		}
		return el
	}
	root := xmldom.NewElement(xmldom.N("", "root"))
	for i := 0; i < 1+r.Intn(4); i++ {
		root.Append(build(2))
	}
	return reflect.ValueOf(genDoc{El: root})
}

func countElements(e *xmldom.Element) int {
	n := 1
	for _, c := range e.ChildElements() {
		n += countElements(c)
	}
	return n
}

// Property: count(//*) equals the true element count.
func TestPropertyCountAllElements(t *testing.T) {
	expr := MustCompile("count(//*)")
	f := func(d genDoc) bool {
		r, err := expr.Eval(d.El)
		return err == nil && int(r.Number()) == countElements(d.El)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: not(X) is the negation of boolean(X) for arbitrary path filters.
func TestPropertyNotInverts(t *testing.T) {
	exprs := []string{"//e", "//f[@val > 50]", "//g/e", "//missing", "//e[@val < 10]"}
	f := func(d genDoc, idx uint) bool {
		src := exprs[idx%uint(len(exprs))]
		pos := MustCompile("boolean(" + src + ")")
		neg := MustCompile("not(" + src + ")")
		pr, err1 := pos.Eval(d.El)
		nr, err2 := neg.Eval(d.El)
		return err1 == nil && err2 == nil && pr.Bool() == !nr.Bool()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a union is no smaller than either operand and no larger than
// the sum, and // is monotone: //e ⊆ //* .
func TestPropertyUnionBounds(t *testing.T) {
	eAll := MustCompile("//*")
	eE := MustCompile("//e")
	eF := MustCompile("//f")
	eU := MustCompile("//e | //f")
	f := func(d genDoc) bool {
		all, _ := eAll.Eval(d.El)
		ce, _ := eE.Eval(d.El)
		cf, _ := eF.Eval(d.El)
		cu, _ := eU.Eval(d.El)
		if cu.Count() > ce.Count()+cf.Count() || cu.Count() < ce.Count() || cu.Count() < cf.Count() {
			return false
		}
		return ce.Count() <= all.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: predicates filter — //e[@val > N] count is non-increasing in N.
func TestPropertyPredicateMonotone(t *testing.T) {
	f := func(d genDoc, n uint8) bool {
		lo := MustCompile(fmt.Sprintf("count(//e[@val > %d])", int(n)%100))
		hi := MustCompile(fmt.Sprintf("count(//e[@val > %d])", int(n)%100+10))
		rl, _ := lo.Eval(d.El)
		rh, _ := hi.Eval(d.El)
		return rh.Number() <= rl.Number()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// preorder lists every element and text node of a document in document
// order by plain recursion: the reference the evaluator's fused descendant
// steps and single-context fast path must reproduce exactly.
func preorder(doc *xmldom.Element) []node {
	var out []node
	var walk func(el *xmldom.Element)
	walk = func(el *xmldom.Element) {
		out = append(out, elemNode(el))
		for i, ch := range el.Children {
			switch c := ch.(type) {
			case *xmldom.Element:
				walk(c)
			case xmldom.Text:
				out = append(out, node{kind: kindText, el: el, child: i})
			}
		}
	}
	walk(doc)
	return out
}

func isNamed(n node, local string) bool { return n.kind == kindElement && n.el.Name.Local == local }

func parentNamed(n node, local string) bool {
	p := n.el.Parent()
	return p != nil && p.Name.Local == local
}

func hasAncestor(n node, local string) bool {
	for p := n.el.Parent(); p != nil; p = p.Parent() {
		if p.Name.Local == local {
			return true
		}
	}
	return false
}

func hasDescendant(n node, local string) bool {
	for _, d := range preorder(n.el)[1:] {
		if isNamed(d, local) {
			return true
		}
	}
	return false
}

// firstOfName reports whether no earlier sibling element has n's name.
func firstOfName(n node) bool {
	for _, ch := range n.el.Parent().Children {
		if el, ok := ch.(*xmldom.Element); ok {
			if el == n.el {
				return true
			}
			if el.Name == n.el.Name {
				return false
			}
		}
	}
	return false
}

// Property: every path the rewrite and the fast path touch selects exactly
// the brute-force node list — the same nodes, in document order, once each.
func TestPropertyPathsMatchBruteForce(t *testing.T) {
	cases := []struct {
		src  string
		keep func(n node) bool
	}{
		{"//e", func(n node) bool { return isNamed(n, "e") }},
		{"//e/f", func(n node) bool { return isNamed(n, "f") && parentNamed(n, "e") }},
		{"/root//f", func(n node) bool { return isNamed(n, "f") && hasAncestor(n, "root") }},
		{"//e//f", func(n node) bool { return isNamed(n, "f") && hasAncestor(n, "e") }},
		{"//e | //f", func(n node) bool { return isNamed(n, "e") || isNamed(n, "f") }},
		{"//text()", func(n node) bool { return n.kind == kindText }},
		{"//node()", func(node) bool { return true }},
		{"//e[.//f]", func(n node) bool { return isNamed(n, "e") && hasDescendant(n, "f") }},
		{"//e[1]", func(n node) bool { return isNamed(n, "e") && firstOfName(n) }},
	}
	for _, tc := range cases {
		expr := MustCompile(tc.src)
		f := func(d genDoc) bool {
			r, err := expr.Eval(d.El)
			if err != nil {
				return false
			}
			var want nodeSet
			for _, n := range preorder(d.El) {
				if tc.keep(n) {
					want = append(want, n)
				}
			}
			got, _ := r.v.(nodeSet)
			return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s: %v", tc.src, err)
		}
	}
}

// Property: the rewrite leaves a predicated step alone. "//e[1]" is every
// e that is the first e among its siblings; "/descendant::e[1]" is only
// the first e of the document, and the two differ wherever some e follows
// another e outside its sibling list.
func TestPropertyPredicateBlocksFusion(t *testing.T) {
	perParent := MustCompile("//e[1]")
	first := MustCompile("/descendant::e[1]")
	differed := 0
	f := func(d genDoc) bool {
		rp, err1 := perParent.Eval(d.El)
		rf, err2 := first.Eval(d.El)
		if err1 != nil || err2 != nil {
			return false
		}
		var want []node
		for _, n := range preorder(d.El) {
			if isNamed(n, "e") {
				want = append(want, n)
				break
			}
		}
		got, _ := rf.v.(nodeSet)
		if len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
			return false
		}
		if rp.Count() != rf.Count() {
			differed++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if differed == 0 {
		t.Error("no generated document told //e[1] from /descendant::e[1]")
	}
	d := xmldom.MustParse(`<root><e/><g><e/><e/></g></root>`)
	rp, _ := perParent.Eval(d)
	rf, _ := first.Eval(d)
	if rp.Count() != 2 || rf.Count() != 1 {
		t.Errorf("//e[1] selected %d, /descendant::e[1] %d; want 2 and 1", rp.Count(), rf.Count())
	}
}

// The compiled form: an unpredicated "//T" is one descendant step, inside
// predicates and function arguments too; a predicated pair keeps both steps.
func TestFuseDescendantShape(t *testing.T) {
	steps := func(src string) []step {
		t.Helper()
		switch e := MustCompile(src).root.(type) {
		case *pathExpr:
			return e.steps
		case *funcCall:
			return e.args[0].(*pathExpr).steps
		}
		t.Fatalf("%s: not a path", src)
		return nil
	}
	if s := steps("//e"); len(s) != 1 || s[0].axis != axisDescendant || s[0].test.local != "e" {
		t.Errorf("//e compiled to %+v", s)
	}
	if s := steps("count(/root//f/g)"); len(s) != 3 || s[1].axis != axisDescendant || s[2].axis != axisChild {
		t.Errorf("/root//f/g compiled to %+v", s)
	}
	if s := steps("//e[1]"); len(s) != 2 || s[0].axis != axisDescendantOrSelf || s[1].axis != axisChild {
		t.Errorf("//e[1] compiled to %+v", s)
	}
	pred := steps("//e[.//f]")[1].preds[0].(*pathExpr).steps
	if len(pred) != 2 || pred[1].axis != axisDescendant {
		t.Errorf(".//f inside a predicate compiled to %+v", pred)
	}
}
