package xpath

import (
	"strings"
	"testing"

	"repro/internal/xmldom"
)

// doc is a representative notification-style message used across tests.
var doc = xmldom.MustParse(`
<stock xmlns:m="urn:market">
  <m:quote symbol="IBM">
    <m:price>83.5</m:price>
    <m:volume>1200</m:volume>
  </m:quote>
  <m:quote symbol="MSFT">
    <m:price>27.25</m:price>
    <m:volume>4000</m:volume>
  </m:quote>
  <m:quote symbol="SUNW">
    <m:price>5.10</m:price>
    <m:volume>900</m:volume>
  </m:quote>
  <note lang="en">hello world</note>
</stock>`)

var marketNS = Namespaces{"m": "urn:market"}

func evalStr(t *testing.T, expr string, ns Namespaces) Result {
	t.Helper()
	e, err := CompileNS(expr, ns)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	r, err := e.Eval(doc)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return r
}

func TestLocationPaths(t *testing.T) {
	cases := []struct {
		expr  string
		count int
	}{
		{"/stock", 1},
		{"/stock/m:quote", 3},
		{"//m:price", 3},
		{"/stock/m:quote/m:price", 3},
		{"//m:quote[@symbol='IBM']", 1},
		{"//m:quote[m:price > 20]", 2},
		{"//m:quote[m:price > 20][m:volume > 2000]", 1},
		{"/stock/*", 4},
		{"/stock/m:*", 3},
		{"//@symbol", 3},
		{"/stock/m:quote[1]", 1},
		{"/stock/m:quote[last()]", 1},
		{"/stock/m:quote[position() >= 2]", 2},
		{"//m:quote/..", 1},
		{"//m:price/ancestor::stock", 1},
		{"//m:quote[@symbol='IBM']/following-sibling::m:quote", 2},
		{"//m:quote[@symbol='SUNW']/preceding-sibling::m:quote", 2},
		{"//m:quote[@symbol='MSFT']/following::m:price", 1},
		{"//m:quote[@symbol='MSFT']/preceding::m:price", 1},
		{"/stock/descendant::m:price", 3},
		{"/stock/descendant-or-self::stock", 1},
		{"//note/text()", 1},
		{"//node()", 0}, // counted below separately — non-zero
		{"self::node()", 1},
		{"//m:quote[@symbol='NONE']", 0},
		{"/nonexistent", 0},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			r := evalStr(t, tc.expr, marketNS)
			if tc.expr == "//node()" {
				if r.Count() == 0 {
					t.Errorf("//node() found nothing")
				}
				return
			}
			if r.Count() != tc.count {
				t.Errorf("%s: count = %d, want %d", tc.expr, r.Count(), tc.count)
			}
		})
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	r := evalStr(t, "//m:price | //m:quote[@symbol='IBM']/m:price | //m:volume", marketNS)
	if r.Count() != 6 {
		t.Fatalf("union count = %d, want 6 (dedup failed?)", r.Count())
	}
	ss := r.Strings()
	want := []string{"83.5", "1200", "27.25", "4000", "5.10", "900"}
	for i := range want {
		if strings.TrimSpace(ss[i]) != want[i] {
			t.Errorf("union order [%d] = %q, want %q", i, ss[i], want[i])
		}
	}
}

func TestBooleanFilters(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"//m:quote[@symbol='IBM']/m:price > 80", true},
		{"//m:quote[@symbol='IBM']/m:price > 100", false},
		{"count(//m:quote) = 3", true},
		{"count(//m:quote) > 3", false},
		{"//m:price < 6", true}, // existential: SUNW matches
		{"//m:price > 100", false},
		{"contains(//note, 'world')", true},
		{"starts-with(//note, 'hello')", true},
		{"not(//missing)", true},
		{"boolean(//m:quote)", true},
		{"boolean(//missing)", false},
		{"//m:quote[@symbol='IBM'] and //m:quote[@symbol='MSFT']", true},
		{"//m:quote[@symbol='IBM'] or //missing", true},
		{"//missing or false()", false},
		{"sum(//m:volume) = 6100", true},
		{"'abc' = 'abc'", true},
		{"'abc' != 'abc'", false},
		{"1 < 2 and 2 <= 2 and 3 > 2 and 3 >= 3", true},
		{"(1 + 2) * 3 = 9", true},
		{"10 div 4 = 2.5", true},
		{"10 mod 3 = 1", true},
		{"-5 + 6 = 1", true},
		{"//m:quote/@symbol = 'MSFT'", true}, // existential over attrs
		{"//note[@lang='en']", true},
		{"lang('en')", false}, // context is root, no xml:lang above it
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			e, err := CompileNS(tc.expr, marketNS)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, err := e.Matches(doc)
			if err != nil {
				t.Fatalf("eval: %v", err)
			}
			if got != tc.want {
				t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
			}
		})
	}
}

func TestStringFunctions(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{"string(//m:quote[1]/@symbol)", "IBM"},
		{"concat('a', 'b', 'c')", "abc"},
		{"substring('12345', 2, 3)", "234"},
		{"substring('12345', 2)", "2345"},
		{"substring('12345', 1.5, 2.6)", "234"}, // spec example
		{"substring-before('1999/04/01', '/')", "1999"},
		{"substring-after('1999/04/01', '/')", "04/01"},
		{"substring-before('abc', 'x')", ""},
		{"substring-after('abc', 'x')", ""},
		{"normalize-space('  a   b  ')", "a b"},
		{"translate('bar', 'abc', 'ABC')", "BAr"},
		{"translate('--aaa--', 'abc-', 'ABC')", "AAA"},
		{"string(1 div 0)", "Infinity"},
		{"string(-1 div 0)", "-Infinity"},
		{"string(0 div 0)", "NaN"},
		{"string(2 + 2)", "4"},
		{"string(2.5)", "2.5"},
		{"string(true())", "true"},
		{"string(false())", "false"},
		{"local-name(//m:quote[1])", "quote"},
		{"namespace-uri(//m:quote[1])", "urn:market"},
		{"name(//note)", "note"},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			if got := evalStr(t, tc.expr, marketNS).String(); got != tc.want {
				t.Errorf("%s = %q, want %q", tc.expr, got, tc.want)
			}
		})
	}
}

func TestNumberFunctions(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"number('12.5')", 12.5},
		{"number(true())", 1},
		{"floor(2.7)", 2},
		{"ceiling(2.1)", 3},
		{"round(2.5)", 3},
		{"round(-2.5)", -2},
		{"round(2.4)", 2},
		{"string-length('hello')", 5},
		{"string-length('日本語')", 3},
		{"count(//m:quote)", 3},
		{"sum(//m:price)", 83.5 + 27.25 + 5.10},
		{"position()", 1},
		{"last()", 1},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			if got := evalStr(t, tc.expr, marketNS).Number(); got != tc.want {
				t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
			}
		})
	}
}

func TestNumberNaN(t *testing.T) {
	r := evalStr(t, "number('abc')", nil)
	if !isNaN(r.Number()) {
		t.Errorf("number('abc') = %v, want NaN", r.Number())
	}
	r = evalStr(t, "number('')", nil)
	if !isNaN(r.Number()) {
		t.Errorf("number('') = %v, want NaN", r.Number())
	}
}

func isNaN(f float64) bool { return f != f }

func TestDefaultNamespaceBinding(t *testing.T) {
	d := xmldom.MustParse(`<a xmlns="urn:d"><b attr="1">x</b></a>`)
	// Without a default binding, unprefixed tests match no-namespace names.
	e := MustCompile("/a/b")
	r, err := e.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 0 {
		t.Errorf("unprefixed path matched namespaced elements without binding")
	}
	// With "" bound, element tests pick up the default namespace...
	e2, err := CompileNS("/a/b", Namespaces{"": "urn:d"})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e2.Eval(d)
	if r2.Count() != 1 {
		t.Errorf("default-bound path found %d, want 1", r2.Count())
	}
	// ...but attribute tests do not (unprefixed attrs are in no namespace).
	e3, _ := CompileNS("//b[@attr='1']", Namespaces{"": "urn:d"})
	r3, _ := e3.Eval(d)
	if r3.Count() != 1 {
		t.Errorf("attribute test affected by default namespace binding")
	}
}

func TestEvalAt(t *testing.T) {
	quote := doc.ChildElements()[0] // first m:quote
	e, _ := CompileNS("m:price", marketNS)
	r, err := e.EvalAt(quote)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 1 || strings.TrimSpace(r.String()) != "83.5" {
		t.Errorf("EvalAt relative path = %v %q", r.Count(), r.String())
	}
	// ".." from the quote reaches the stock element.
	e2 := MustCompile("..")
	r2, _ := e2.EvalAt(quote)
	els := r2.Elements()
	if len(els) != 1 || els[0].Name.Local != "stock" {
		t.Errorf(".. from quote = %v", els)
	}
}

func TestElementsAccessor(t *testing.T) {
	r := evalStr(t, "//m:quote", marketNS)
	els := r.Elements()
	if len(els) != 3 {
		t.Fatalf("Elements len = %d", len(els))
	}
	if els[0].AttrValue(xmldom.N("", "symbol")) != "IBM" {
		t.Errorf("first element = %v", els[0].Name)
	}
	// Non-node-set results give nil Elements.
	if evalStr(t, "1 + 1", nil).Elements() != nil {
		t.Error("Elements on number result should be nil")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"/stock/",
		"1 +",
		"@",
		"foo(",
		"unknownfn()",
		"m:quote", // undeclared prefix (no namespaces passed)
		"//a[",
		"'unterminated",
		"a b",
		"1 !",
		"child::5",
		"axis-nope::a",
		"..[1] extra ]",
		"count(//a,//b,//c) mismatch(",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	// Predicate on a non-node-set.
	if _, err := CompileNS("(1)[2]", nil); err == nil {
		e := MustCompile("(1)[2]")
		if _, err := e.Eval(doc); err == nil {
			t.Error("(1)[2] should fail at eval time")
		}
	}
	// count() of a non-node-set.
	e := MustCompile("count(1)")
	if _, err := e.Eval(doc); err == nil {
		t.Error("count(1) should fail")
	}
	e = MustCompile("sum('a')")
	if _, err := e.Eval(doc); err == nil {
		t.Error("sum('a') should fail")
	}
	e = MustCompile("1 | 2")
	if _, err := e.Eval(doc); err == nil {
		t.Error("1 | 2 should fail")
	}
}

func TestOperatorNameDisambiguation(t *testing.T) {
	d := xmldom.MustParse(`<r><div>5</div><mod>2</mod><and>1</and><or>1</or></r>`)
	// Element names that collide with operator names must parse as names in
	// step position and as operators in operator position.
	e, err := Compile("/r/div + /r/mod")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := e.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Number() != 7 {
		t.Errorf("div+mod = %v, want 7", r.Number())
	}
	e2, err := Compile("/r/and and /r/or")
	if err != nil {
		t.Fatalf("compile and/or names: %v", err)
	}
	ok, _ := e2.Matches(d)
	if !ok {
		t.Error("and/or element names should both exist")
	}
	e3, err := Compile("6 div 2 mod 2")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r3, _ := e3.Eval(d)
	if r3.Number() != 1 {
		t.Errorf("6 div 2 mod 2 = %v, want 1", r3.Number())
	}
}

func TestWildcardNamespace(t *testing.T) {
	r := evalStr(t, "count(//m:*)", marketNS)
	if r.Number() != 9 { // 3 quotes + 3 prices + 3 volumes
		t.Errorf("count(//m:*) = %v, want 9", r.Number())
	}
}

func TestTextNodes(t *testing.T) {
	r := evalStr(t, "//note/text()", nil)
	if r.Count() != 1 || r.String() != "hello world" {
		t.Errorf("text() = %d %q", r.Count(), r.String())
	}
}

func TestLangFunction(t *testing.T) {
	d := xmldom.MustParse(`<r xml:lang="en-US"><a/><b xml:lang="fr"><c/></b></r>`)
	a := d.ChildElements()[0]
	c := d.ChildElements()[1].ChildElements()[0]
	e := MustCompile("lang('en')")
	if r, _ := e.EvalAt(a); !r.Bool() {
		t.Error("lang('en') at <a> should be true via inherited en-US")
	}
	if r, _ := e.EvalAt(c); r.Bool() {
		t.Error("lang('en') at <c> should be false (fr)")
	}
	e2 := MustCompile("lang('fr')")
	if r, _ := e2.EvalAt(c); !r.Bool() {
		t.Error("lang('fr') at <c> should be true")
	}
}

func TestFilterExprWithPath(t *testing.T) {
	// FilterExpr '/' RelativeLocationPath: path from a parenthesised set.
	r := evalStr(t, "(//m:quote[@symbol='IBM'])/m:price", marketNS)
	if r.Count() != 1 || strings.TrimSpace(r.String()) != "83.5" {
		t.Errorf("filter-path = %d %q", r.Count(), r.String())
	}
	r2 := evalStr(t, "(//m:quote)[2]//m:volume", marketNS)
	if r2.Count() != 1 || strings.TrimSpace(r2.String()) != "4000" {
		t.Errorf("(//m:quote)[2]//m:volume = %d %q", r2.Count(), r2.String())
	}
}

func TestBareSlashSelectsRoot(t *testing.T) {
	r := evalStr(t, "/", nil)
	if r.Count() != 1 {
		t.Fatalf("/ selected %d nodes", r.Count())
	}
	if r.String() == "" {
		t.Error("root string-value should be document text")
	}
}

func TestConcurrentEval(t *testing.T) {
	e, _ := CompileNS("//m:quote[m:price > 20]", marketNS)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				r, err := e.Eval(doc)
				if err != nil || r.Count() != 2 {
					t.Errorf("concurrent eval: %v %d", err, r.Count())
					break
				}
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestExplicitAxisSyntax(t *testing.T) {
	cases := []struct {
		expr  string
		count int
	}{
		{"child::stock", 1},
		{"/child::stock/child::m:quote", 3},
		{"//m:price/parent::m:quote", 3},
		{"//m:price/ancestor-or-self::m:price", 3},
		{"//m:quote[1]/attribute::symbol", 1},
		{"/descendant::m:volume", 3},
		{"//m:quote[2]/self::m:quote", 1},
		{"//m:quote[2]/self::note", 0},
		{"//note/preceding-sibling::m:quote", 3},
		{"//m:quote[1]/following::note", 1},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			r := evalStr(t, tc.expr, marketNS)
			if r.Count() != tc.count {
				t.Errorf("%s: count = %d, want %d", tc.expr, r.Count(), tc.count)
			}
		})
	}
}

func TestNodeSetComparisons(t *testing.T) {
	// Node-set vs node-set and node-set vs number comparisons follow the
	// existential semantics.
	cases := []struct {
		expr string
		want bool
	}{
		{"//m:volume > //m:price", true}, // some volume beats some price
		{"//m:price = //m:price", true},  // reflexive existential
		{"//m:price > 1000", false},      // no price that large
		{"count(//m:quote[m:price > m:volume]) = 0", true},
		{"//m:quote/@symbol = //note/@lang", false},
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			e, err := CompileNS(tc.expr, marketNS)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Matches(doc)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
			}
		})
	}
}

// TestNodeSetAgainstBoolean pins XPath 1.0 §3.4: a node-set compared with
// a boolean stands for boolean(node-set), so a filter can select messages
// that lack an element.
func TestNodeSetAgainstBoolean(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"//missing = false()", true},
		{"false() = //missing", true},
		{"//missing != true()", true},
		{"true() != //missing", true},
		{"//missing = true()", false},
		{"//m:quote = true()", true},
		{"//m:quote = false()", false},
		{"false() != //m:quote", true},
		{"//missing < true()", true}, // 0 < 1 after number()
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			if got := evalStr(t, tc.expr, marketNS).Bool(); got != tc.want {
				t.Errorf("%s = %v, want %v", tc.expr, got, tc.want)
			}
		})
	}
}

func TestNumericPredicateViaExpression(t *testing.T) {
	// position() arithmetic inside predicates.
	r := evalStr(t, "/stock/m:quote[position() = last() - 1]", marketNS)
	if r.Count() != 1 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.Elements()[0].AttrValue(xmldom.N("", "symbol")); got != "MSFT" {
		t.Errorf("middle quote = %q", got)
	}
}

func TestFunctionArityAndArgumentErrors(t *testing.T) {
	// Arity violations and wrong argument kinds surface at eval time.
	evalErr := []string{
		"position(1)",
		"last(1)",
		"count()",
		"count(1, 2)",
		"boolean()",
		"not()",
		"local-name(1)",
		"namespace-uri('s')",
		"string(1, 2)",
		"concat('only')",
		"substring('x')",
		"translate('a', 'b')",
	}
	for _, src := range evalErr {
		e, err := Compile(src)
		if err != nil {
			continue // rejected at parse: also acceptable
		}
		if _, err := e.Eval(doc); err == nil {
			t.Errorf("%s evaluated without error", src)
		}
	}
}

func TestNodeArgDefaultsAndEmptySets(t *testing.T) {
	// Empty node-set arguments yield empty names, not errors.
	for _, src := range []string{"local-name(//missing)", "namespace-uri(//missing)", "name(//missing)"} {
		if got := evalStr(t, src, marketNS).String(); got != "" {
			t.Errorf("%s = %q, want empty", src, got)
		}
	}
	// No-argument forms use the context node.
	quote := doc.ChildElements()[0]
	e := MustCompile("local-name()")
	r, err := e.EvalAt(quote)
	if err != nil || r.String() != "quote" {
		t.Errorf("local-name() at quote = %q %v", r.String(), err)
	}
	e2 := MustCompile("string-length()")
	r2, _ := e2.EvalAt(quote)
	if r2.Number() <= 0 {
		t.Errorf("string-length() at quote = %v", r2.Number())
	}
	e3 := MustCompile("normalize-space()")
	r3, _ := e3.EvalAt(quote)
	if r3.String() == "" {
		t.Error("normalize-space() at quote empty")
	}
}

func TestResultAccessorsOnScalars(t *testing.T) {
	r := evalStr(t, "concat('a','b')", nil)
	if r.IsNodeSet() {
		t.Error("string result misreported as node-set")
	}
	if got := r.Strings(); len(got) != 1 || got[0] != "ab" {
		t.Errorf("Strings = %v", got)
	}
	rs := evalStr(t, "//m:price", marketNS)
	if !rs.IsNodeSet() {
		t.Error("node-set result misreported")
	}
}
