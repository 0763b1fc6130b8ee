package xpath

import (
	"fmt"

	"repro/internal/xmldom"
)

// Expr is a compiled XPath expression, safe for concurrent use.
type Expr struct {
	src  string
	root exprNode
}

// Namespaces maps prefixes used in an expression to namespace URIs. A
// binding for the empty prefix sets a default namespace for element name
// tests (an extension over strict XPath 1.0 that the WS filter dialects
// need: notification payloads are almost always namespace-qualified).
type Namespaces map[string]string

// Compile parses an expression with no namespace bindings.
func Compile(src string) (*Expr, error) { return CompileNS(src, nil) }

// CompileNS parses an expression with the given prefix bindings.
func CompileNS(src string, ns Namespaces) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, ns: map[string]string{}}
	for k, v := range ns {
		p.ns[k] = v
	}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("xpath: trailing input %s at offset %d", p.cur(), p.cur().pos)
	}
	fuseDescendant(root)
	return &Expr{src: src, root: root}, nil
}

// String returns the source text of the expression.
func (e *Expr) String() string { return e.src }

// Result holds the value of an evaluated expression with accessors that
// apply the standard XPath coercions.
type Result struct{ v value }

// Bool returns the boolean() coercion of the result — the operation every
// subscription filter reduces to.
func (r Result) Bool() bool { return toBool(r.v) }

// String returns the string() coercion of the result.
func (r Result) String() string { return toString(r.v) }

// Eval evaluates the expression with the document rooted at doc. The
// context node is the root node (the parent of doc), matching how an XPath
// processor is handed a whole message, so absolute and relative paths both
// behave as users of message filters expect: "//Price" and
// "/Envelope/Price" and "Envelope/Price" all work.
func (e *Expr) Eval(doc *xmldom.Element) (Result, error) {
	ev := &evaluator{}
	ctx := evalCtx{node: rootNode(topmost(doc)), pos: 1, size: 1}
	v, err := ev.eval(e.root, ctx)
	if err != nil {
		return Result{}, err
	}
	return Result{v: v}, nil
}

// Matches is the filter entry point: evaluate against the message and
// coerce to boolean. Errors are returned rather than treated as false so
// the subscription layer can fault invalid filters at subscribe time.
func (e *Expr) Matches(doc *xmldom.Element) (bool, error) {
	r, err := e.Eval(doc)
	if err != nil {
		return false, err
	}
	return r.Bool(), nil
}

func topmost(e *xmldom.Element) *xmldom.Element {
	for e.Parent() != nil {
		e = e.Parent()
	}
	return e
}
