package xpath

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/xmldom"
)

// nodeKind distinguishes the node kinds the evaluator operates on. The
// xmldom tree stores only elements and text, so XPath attribute and root
// nodes are synthesised as lightweight wrappers.
type nodeKind int

const (
	kindRoot nodeKind = iota
	kindElement
	kindAttribute
	kindText
)

// node is an XPath node: a view onto (part of) an xmldom tree. Identity is
// structural: two node values denote the same node iff all fields match.
// order is a document-position key assigned lazily for sorting and
// de-duplicating node-sets.
type node struct {
	kind  nodeKind
	el    *xmldom.Element // element for kindElement; owner for attr/text; root's doc element for kindRoot
	attr  int             // attribute index within el, for kindAttribute
	child int             // child index within el, for kindText
}

func elemNode(e *xmldom.Element) node   { return node{kind: kindElement, el: e} }
func rootNode(doc *xmldom.Element) node { return node{kind: kindRoot, el: doc} }

// stringValue implements the XPath string-value of each node kind.
func (n node) stringValue() string {
	switch n.kind {
	case kindRoot, kindElement:
		if len(n.el.Children) == 1 { // the common leaf: no copy
			if t, ok := n.el.Children[0].(xmldom.Text); ok {
				return string(t)
			}
		}
		return n.el.Text()
	case kindAttribute:
		return n.el.Attrs[n.attr].Value
	case kindText:
		return string(n.el.Children[n.child].(xmldom.Text))
	}
	return ""
}

// name returns the expanded name of the node ("" names for root and text).
func (n node) name() xmldom.Name {
	switch n.kind {
	case kindElement:
		return n.el.Name
	case kindAttribute:
		return n.el.Attrs[n.attr].Name
	}
	return xmldom.Name{}
}

// parent returns the node's parent node and whether one exists. The parent
// of the document element (and of any detached subtree root we were handed)
// is the synthetic root node.
func (n node) parent() (node, bool) {
	switch n.kind {
	case kindRoot:
		return node{}, false
	case kindElement:
		if p := n.el.Parent(); p != nil {
			return elemNode(p), true
		}
		return rootNode(n.el), true
	default: // attribute and text nodes belong to their element
		return elemNode(n.el), true
	}
}

// value is the evaluator-internal value union: one of boolVal, numVal,
// strVal, nodeSet.
type value interface{ valueKind() string }

type boolVal bool

func (boolVal) valueKind() string { return "boolean" }

type numVal float64

func (numVal) valueKind() string { return "number" }

type strVal string

func (strVal) valueKind() string { return "string" }

type nodeSet []node

func (nodeSet) valueKind() string { return "node-set" }

// toBool applies the XPath boolean() coercion.
func toBool(v value) bool {
	switch t := v.(type) {
	case boolVal:
		return bool(t)
	case numVal:
		f := float64(t)
		return f != 0 && !math.IsNaN(f)
	case strVal:
		return len(t) > 0
	case nodeSet:
		return len(t) > 0
	}
	return false
}

// toNumber applies the XPath number() coercion.
func toNumber(v value) float64 {
	switch t := v.(type) {
	case numVal:
		return float64(t)
	case boolVal:
		if t {
			return 1
		}
		return 0
	case strVal:
		return stringToNumber(string(t))
	case nodeSet:
		return stringToNumber(nodeSetString(t))
	}
	return math.NaN()
}

func stringToNumber(s string) float64 {
	s = strings.TrimSpace(s)
	if s == "" {
		return math.NaN()
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// toString applies the XPath string() coercion.
func toString(v value) string {
	switch t := v.(type) {
	case strVal:
		return string(t)
	case boolVal:
		if t {
			return "true"
		}
		return "false"
	case numVal:
		return numberToString(float64(t))
	case nodeSet:
		return nodeSetString(t)
	}
	return ""
}

// numberToString renders per XPath: integers without a decimal point, NaN
// as "NaN", infinities as "Infinity"/"-Infinity".
func numberToString(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// nodeSetString is the string-value of the first node in document order;
// node-sets produced by the evaluator are already ordered.
func nodeSetString(ns nodeSet) string {
	if len(ns) == 0 {
		return ""
	}
	return ns[0].stringValue()
}

// compare implements the XPath comparison semantics, including the
// node-set-against-anything rules of XPath 1.0 §3.4.
func compare(op binaryOp, a, b value) bool {
	an, aIsNS := a.(nodeSet)
	bn, bIsNS := b.(nodeSet)
	switch {
	case aIsNS && bIsNS:
		// Existential over pairs of string-values.
		for _, x := range an {
			for _, y := range bn {
				if compareAtomic(op, strVal(x.stringValue()), strVal(y.stringValue())) {
					return true
				}
			}
		}
		return false
	case aIsNS:
		return compareNodes(op, an, b, false)
	case bIsNS:
		return compareNodes(op, bn, a, true)
	default:
		return compareAtomic(op, a, b)
	}
}

// compareNodes compares a node-set with an atomic operand; flipped puts
// the node-set on the right. Against a boolean the node-set stands for
// boolean(ns), so an empty set equals false(); against a number or a
// string the comparison is existential over the nodes' string-values,
// converted to the other operand's type.
func compareNodes(op binaryOp, ns nodeSet, other value, flipped bool) bool {
	cmp := func(x value) bool {
		if flipped {
			return compareAtomic(op, other, x)
		}
		return compareAtomic(op, x, other)
	}
	switch o := other.(type) {
	case boolVal:
		return cmp(boolVal(len(ns) > 0))
	case strVal:
		if op == opEq || op == opNeq {
			for _, n := range ns {
				if (n.stringValue() == string(o)) == (op == opEq) {
					return true
				}
			}
			return false
		}
	}
	for _, n := range ns {
		sv := n.stringValue()
		x := value(strVal(sv))
		if isNum(other) {
			x = numVal(stringToNumber(sv))
		}
		if cmp(x) {
			return true
		}
	}
	return false
}

func compareAtomic(op binaryOp, a, b value) bool {
	switch op {
	case opEq, opNeq:
		var eq bool
		switch {
		case isBool(a) || isBool(b):
			eq = toBool(a) == toBool(b)
		case isNum(a) || isNum(b):
			eq = toNumber(a) == toNumber(b)
		default:
			eq = toString(a) == toString(b)
		}
		if op == opEq {
			return eq
		}
		return !eq
	default:
		x, y := toNumber(a), toNumber(b)
		switch op {
		case opLt:
			return x < y
		case opLte:
			return x <= y
		case opGt:
			return x > y
		case opGte:
			return x >= y
		}
	}
	return false
}

func isBool(v value) bool { _, ok := v.(boolVal); return ok }
func isNum(v value) bool  { _, ok := v.(numVal); return ok }
