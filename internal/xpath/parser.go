package xpath

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser for the XPath 1.0 grammar subset.
type parser struct {
	toks []token
	pos  int
	ns   map[string]string // prefix -> namespace URI
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[p.pos+1] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, fmt.Errorf("xpath: expected %s, found %s at offset %d", what, p.cur(), p.cur().pos)
	}
	return p.advance(), nil
}

func (p *parser) resolvePrefix(prefix string, at int) (string, error) {
	uri, ok := p.ns[prefix]
	if !ok {
		return "", fmt.Errorf("xpath: undeclared namespace prefix %q at offset %d", prefix, at)
	}
	return uri, nil
}

// parseExpr parses the top-level production (OrExpr).
func (p *parser) parseExpr() (exprNode, error) { return p.parseOr() }

func (p *parser) parseOr() (exprNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isOperatorName("or") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: opOr, left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (exprNode, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.isOperatorName("and") {
		p.advance()
		right, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: opAnd, left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseEquality() (exprNode, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		var op binaryOp
		switch p.cur().kind {
		case tokEq:
			op = opEq
		case tokNeq:
			op = opNeq
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: op, left: left, right: right}
	}
}

func (p *parser) parseRelational() (exprNode, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		var op binaryOp
		switch p.cur().kind {
		case tokLt:
			op = opLt
		case tokLte:
			op = opLte
		case tokGt:
			op = opGt
		case tokGte:
			op = opGte
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: op, left: left, right: right}
	}
}

func (p *parser) parseAdditive() (exprNode, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op binaryOp
		switch p.cur().kind {
		case tokPlus:
			op = opAdd
		case tokMinus:
			op = opSub
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: op, left: left, right: right}
	}
}

func (p *parser) parseMultiplicative() (exprNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op binaryOp
		switch {
		case p.cur().kind == tokMultiply:
			op = opMul
		case p.isOperatorName("div"):
			op = opDiv
		case p.isOperatorName("mod"):
			op = opMod
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: op, left: left, right: right}
	}
}

func (p *parser) parseUnary() (exprNode, error) {
	neg := false
	for p.cur().kind == tokMinus {
		p.advance()
		neg = !neg
	}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if neg {
		return &negExpr{operand: e}, nil
	}
	return e, nil
}

func (p *parser) parseUnion() (exprNode, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokPipe {
		p.advance()
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: opUnion, left: left, right: right}
	}
	return left, nil
}

// isOperatorName reports whether the current token is the given operator
// name; the lexer has already applied the XPath 1.0 disambiguation rule.
func (p *parser) isOperatorName(name string) bool {
	return p.cur().kind == tokOpName && p.cur().text == name
}

// parsePath handles PathExpr: either a LocationPath, or a FilterExpr
// optionally followed by '/' RelativeLocationPath.
func (p *parser) parsePath() (exprNode, error) {
	if p.startsFilterExpr() {
		fe, err := p.parseFilterExpr()
		if err != nil {
			return nil, err
		}
		switch p.cur().kind {
		case tokSlash:
			p.advance()
			steps, err := p.parseRelativeSteps()
			if err != nil {
				return nil, err
			}
			return &pathExpr{start: fe, steps: steps}, nil
		case tokSlashSlash:
			p.advance()
			steps, err := p.parseRelativeSteps()
			if err != nil {
				return nil, err
			}
			all := append([]step{{axis: axisDescendantOrSelf, test: nodeTest{kind: testNode}}}, steps...)
			return &pathExpr{start: fe, steps: all}, nil
		default:
			return fe, nil
		}
	}
	return p.parseLocationPath()
}

// startsFilterExpr distinguishes a FilterExpr head from a location path.
// FilterExpr begins with a literal, number, '(' or a function call — a name
// directly followed by '(' that is not a node-type test.
func (p *parser) startsFilterExpr() bool {
	switch p.cur().kind {
	case tokLiteral, tokNumber, tokLParen:
		return true
	case tokName:
		if p.peek().kind == tokLParen {
			switch p.cur().text {
			case "text", "node", "comment", "processing-instruction":
				return false
			}
			return true
		}
	}
	return false
}

func (p *parser) parseFilterExpr() (exprNode, error) {
	var primary exprNode
	switch p.cur().kind {
	case tokLiteral:
		primary = &literal{v: strVal(p.advance().text)}
	case tokNumber:
		f, err := strconv.ParseFloat(p.cur().text, 64)
		if err != nil {
			return nil, fmt.Errorf("xpath: bad number %q", p.cur().text)
		}
		p.advance()
		primary = &literal{v: numVal(f)}
	case tokLParen:
		p.advance()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		primary = inner
	case tokName:
		name := p.advance().text
		if _, err := p.expect(tokLParen, "'(' after function name"); err != nil {
			return nil, err
		}
		var args []exprNode
		if p.cur().kind != tokRParen {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, arg)
				if p.cur().kind != tokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if _, ok := functions[name]; !ok {
			return nil, fmt.Errorf("xpath: unknown function %q", name)
		}
		primary = &funcCall{name: name, args: args}
	default:
		return nil, fmt.Errorf("xpath: unexpected token %s at offset %d", p.cur(), p.cur().pos)
	}

	if p.cur().kind != tokLBracket {
		return primary, nil
	}
	preds, err := p.parsePredicates()
	if err != nil {
		return nil, err
	}
	return &filterExpr{primary: primary, preds: preds}, nil
}

func (p *parser) parseLocationPath() (exprNode, error) {
	pe := &pathExpr{}
	switch p.cur().kind {
	case tokSlash:
		p.advance()
		pe.absolute = true
		if !p.startsStep() {
			return pe, nil // bare "/" selects the root
		}
	case tokSlashSlash:
		p.advance()
		pe.absolute = true
		pe.steps = append(pe.steps, step{axis: axisDescendantOrSelf, test: nodeTest{kind: testNode}})
	}
	steps, err := p.parseRelativeSteps()
	if err != nil {
		return nil, err
	}
	pe.steps = append(pe.steps, steps...)
	if len(pe.steps) == 0 && !pe.absolute {
		return nil, fmt.Errorf("xpath: expected expression, found %s at offset %d", p.cur(), p.cur().pos)
	}
	return pe, nil
}

func (p *parser) startsStep() bool {
	switch p.cur().kind {
	case tokName, tokStar, tokNameColonStar, tokAt, tokDot, tokDotDot:
		return true
	}
	return false
}

func (p *parser) parseRelativeSteps() ([]step, error) {
	var steps []step
	for {
		st, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
		switch p.cur().kind {
		case tokSlash:
			p.advance()
		case tokSlashSlash:
			p.advance()
			steps = append(steps, step{axis: axisDescendantOrSelf, test: nodeTest{kind: testNode}})
		default:
			return steps, nil
		}
	}
}

func (p *parser) parseStep() (step, error) {
	switch p.cur().kind {
	case tokDot:
		p.advance()
		return step{axis: axisSelf, test: nodeTest{kind: testNode}}, nil
	case tokDotDot:
		p.advance()
		return step{axis: axisParent, test: nodeTest{kind: testNode}}, nil
	}

	st := step{axis: axisChild}
	switch {
	case p.cur().kind == tokAt:
		p.advance()
		st.axis = axisAttribute
	case p.cur().kind == tokName && p.peek().kind == tokColonColon:
		ax, ok := axisByName[p.cur().text]
		if !ok {
			return step{}, fmt.Errorf("xpath: unknown axis %q at offset %d", p.cur().text, p.cur().pos)
		}
		p.advance()
		p.advance()
		st.axis = ax
	}

	test, err := p.parseNodeTest(st.axis)
	if err != nil {
		return step{}, err
	}
	st.test = test

	if p.cur().kind == tokLBracket {
		preds, err := p.parsePredicates()
		if err != nil {
			return step{}, err
		}
		st.preds = preds
	}
	return st, nil
}

func (p *parser) parseNodeTest(ax axis) (nodeTest, error) {
	switch p.cur().kind {
	case tokStar:
		p.advance()
		return nodeTest{kind: testName, space: "*", local: "*"}, nil
	case tokNameColonStar:
		t := p.advance()
		prefix := t.text[:len(t.text)-2]
		uri, err := p.resolvePrefix(prefix, t.pos)
		if err != nil {
			return nodeTest{}, err
		}
		return nodeTest{kind: testName, space: uri, local: "*"}, nil
	case tokName:
		t := p.advance()
		if p.cur().kind == tokLParen {
			// Node-type test.
			p.advance()
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nodeTest{}, err
			}
			switch t.text {
			case "text":
				return nodeTest{kind: testText}, nil
			case "node":
				return nodeTest{kind: testNode}, nil
			case "comment", "processing-instruction":
				// Our DOM has no such nodes; the test is valid but never
				// matches. Model as a name test that cannot match.
				return nodeTest{kind: testName, space: "\x00none", local: "\x00none"}, nil
			default:
				return nodeTest{}, fmt.Errorf("xpath: unknown node type %q at offset %d", t.text, t.pos)
			}
		}
		space, local := "", t.text
		if i := indexByte(t.text, ':'); i >= 0 {
			uri, err := p.resolvePrefix(t.text[:i], t.pos)
			if err != nil {
				return nodeTest{}, err
			}
			space, local = uri, t.text[i+1:]
		} else if def, ok := p.ns[""]; ok {
			// XPath 1.0 says unprefixed names are in no namespace, but the
			// WS filter dialects are far more usable when the caller can
			// bind a default namespace for element tests; an explicit ""
			// binding opts in.
			if ax != axisAttribute {
				space = def
			}
		}
		return nodeTest{kind: testName, space: space, local: local}, nil
	default:
		return nodeTest{}, fmt.Errorf("xpath: expected node test, found %s at offset %d", p.cur(), p.cur().pos)
	}
}

func (p *parser) parsePredicates() ([]exprNode, error) {
	var preds []exprNode
	for p.cur().kind == tokLBracket {
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket, "']'"); err != nil {
			return nil, err
		}
		preds = append(preds, e)
	}
	return preds, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
