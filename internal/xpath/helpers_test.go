package xpath

import "repro/internal/xmldom"

// The accessors below serve the tests only: production callers compile
// with CompileNS and read a filter's verdict through Matches or
// Result.Bool.

// MustCompile compiles or panics; for fixed expressions in tests.
func MustCompile(src string) *Expr {
	e, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return e
}

// EvalAt evaluates with an explicit element as the context node, for
// relative expressions applied inside a message.
func (e *Expr) EvalAt(ctxEl *xmldom.Element) (Result, error) {
	v, err := (&evaluator{}).eval(e.root, evalCtx{node: elemNode(ctxEl), pos: 1, size: 1})
	if err != nil {
		return Result{}, err
	}
	return Result{v: v}, nil
}

// Number returns the number() coercion of the result.
func (r Result) Number() float64 { return toNumber(r.v) }

// IsNodeSet reports whether the result is a node-set.
func (r Result) IsNodeSet() bool { _, ok := r.v.(nodeSet); return ok }

// Elements returns the element nodes of a node-set result in document
// order; attribute and text nodes are omitted. Nil for non-node-set
// results.
func (r Result) Elements() []*xmldom.Element {
	ns, ok := r.v.(nodeSet)
	if !ok {
		return nil
	}
	var out []*xmldom.Element
	for _, n := range ns {
		if n.kind == kindElement {
			out = append(out, n.el)
		}
	}
	return out
}

// Strings returns the string-value of each node for node-set results, or a
// single-element slice of the coerced string otherwise.
func (r Result) Strings() []string {
	ns, ok := r.v.(nodeSet)
	if !ok {
		return []string{toString(r.v)}
	}
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.stringValue()
	}
	return out
}

// Count returns the number of nodes for node-set results, 0 otherwise.
func (r Result) Count() int {
	if ns, ok := r.v.(nodeSet); ok {
		return len(ns)
	}
	return 0
}
