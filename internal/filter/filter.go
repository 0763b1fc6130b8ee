// Package filter implements the message-filter model shared by the two
// spec families and compared in §V.3 of the paper:
//
//   - WS-Notification defines three filter kinds — TopicExpression,
//     MessageContent (XPath over the payload) and ProducerProperties
//     (XPath over the producer's resource-properties document) — and a
//     subscription may carry any combination; all must pass.
//   - WS-Eventing allows at most one filter, whose default dialect is an
//     XPath content filter, and defines no ProducerProperties filtering.
//
// The package evaluates filters against the canonical Message view that
// every front-end (WSE, WSN, broker, mediation) produces.
package filter

import (
	"fmt"
	"strings"

	"repro/internal/topics"
	"repro/internal/xmldom"
	"repro/internal/xpath"
)

// DialectXPath10 is the XPath 1.0 dialect URI used by both spec families
// for content filters.
const DialectXPath10 = "http://www.w3.org/TR/1999/REC-xpath-19991116"

// Message is the canonical notification handed to filters: the payload
// document, the topic it was published on (zero when the producer has no
// topic concept, e.g. a pure WS-Eventing source), and the producer's
// properties document (nil when the producer exposes none).
type Message struct {
	Topic              topics.Path
	Payload            *xmldom.Element
	ProducerProperties *xmldom.Element
}

// Filter accepts or rejects messages.
type Filter interface {
	// Accepts reports whether the message passes. Errors indicate an
	// evaluation failure (not a mismatch) and abort delivery decisions.
	Accepts(msg Message) (bool, error)
	// Describe returns a human-readable summary for logs and probes.
	Describe() string
}

// Topic filters on the topic path with a WS-Topics expression.
type Topic struct{ Expr *topics.Expression }

// Accepts implements Filter.
func (t Topic) Accepts(msg Message) (bool, error) {
	return t.Expr.Matches(msg.Topic), nil
}

// Describe implements Filter.
func (t Topic) Describe() string { return "topic(" + t.Expr.Raw() + ")" }

// Content filters on the message payload with a boolean XPath expression —
// the content-based filtering Table 3 identifies as the end point of the
// evolution from subject-based filtering.
type Content struct{ Expr *xpath.Expr }

// Accepts implements Filter.
func (c Content) Accepts(msg Message) (bool, error) {
	if msg.Payload == nil {
		return false, nil
	}
	return c.Expr.Matches(msg.Payload)
}

// Describe implements Filter.
func (c Content) Describe() string { return "content(" + c.Expr.String() + ")" }

// ProducerProperties filters on the producer's resource-properties
// document (WS-Notification only; the paper notes WS-Eventing "does not
// specify a way to filter messages using the ProducerProperties").
type ProducerProperties struct{ Expr *xpath.Expr }

// Accepts implements Filter.
func (p ProducerProperties) Accepts(msg Message) (bool, error) {
	if msg.ProducerProperties == nil {
		return false, nil
	}
	return p.Expr.Matches(msg.ProducerProperties)
}

// Describe implements Filter.
func (p ProducerProperties) Describe() string {
	return "producer-properties(" + p.Expr.String() + ")"
}

// All is the conjunction WS-Notification applies when a subscription
// carries several filters. An empty All accepts everything (a subscription
// with no filter receives all messages in both specs).
type All []Filter

// Accepts implements Filter.
func (a All) Accepts(msg Message) (bool, error) {
	for _, f := range a {
		ok, err := f.Accepts(msg)
		if err != nil {
			return false, fmt.Errorf("filter %s: %w", f.Describe(), err)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Describe implements Filter.
func (a All) Describe() string {
	if len(a) == 0 {
		return "accept-all"
	}
	parts := make([]string, len(a))
	for i, f := range a {
		parts[i] = f.Describe()
	}
	return strings.Join(parts, " AND ")
}

// TopicExpression is the expression of the chain's topic filter, nil when
// the chain has none — what a topic index keys on and topic demand checks.
func (a All) TopicExpression() *topics.Expression {
	for _, f := range a {
		if tf, ok := f.(Topic); ok {
			return tf.Expr
		}
	}
	return nil
}

// AcceptAll is the filter of an unfiltered subscription.
var AcceptAll = All(nil)

// NewContent compiles an XPath content filter in the given dialect.
// Only XPath 1.0 is supported; unknown dialects raise UnknownDialectError
// so the subscription layer can emit the spec's filtering fault.
func NewContent(dialect, expr string, ns map[string]string) (Content, error) {
	if dialect != DialectXPath10 && dialect != "" {
		return Content{}, &UnknownDialectError{Dialect: dialect}
	}
	xe, err := xpath.CompileNS(expr, xpath.Namespaces(ns))
	if err != nil {
		return Content{}, &InvalidExpressionError{Expr: expr, Err: err}
	}
	return Content{Expr: xe}, nil
}

// NewProducerProperties compiles a producer-properties filter.
func NewProducerProperties(dialect, expr string, ns map[string]string) (ProducerProperties, error) {
	c, err := NewContent(dialect, expr, ns)
	if err != nil {
		return ProducerProperties{}, err
	}
	return ProducerProperties{Expr: c.Expr}, nil
}

// NewTopic compiles a topic filter in the given WS-Topics dialect.
func NewTopic(dialect, expr string, ns map[string]string) (Topic, error) {
	te, err := topics.ParseExpression(dialect, expr, ns)
	if err != nil {
		if ude, ok := err.(*topics.UnknownDialectError); ok {
			return Topic{}, &UnknownDialectError{Dialect: ude.Dialect}
		}
		return Topic{}, &InvalidExpressionError{Expr: expr, Err: err}
	}
	return Topic{Expr: te}, nil
}

// UnknownDialectError reports an unsupported filter dialect.
type UnknownDialectError struct{ Dialect string }

func (e *UnknownDialectError) Error() string {
	return fmt.Sprintf("filter: unsupported dialect %q", e.Dialect)
}

// InvalidExpressionError reports an expression that failed to compile in a
// supported dialect.
type InvalidExpressionError struct {
	Expr string
	Err  error
}

func (e *InvalidExpressionError) Error() string {
	return fmt.Sprintf("filter: invalid expression %q: %v", e.Expr, e.Err)
}

func (e *InvalidExpressionError) Unwrap() error { return e.Err }
