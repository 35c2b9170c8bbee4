package sql

import (
	"strings"
	"testing"
)

// TestStringTokenPos pins the position-accuracy fix: a string token's
// pos is the opening quote's index (the token's first source byte),
// like every other token kind — not the index past the closing quote.
func TestStringTokenPos(t *testing.T) {
	input := `SELECT a FROM t WHERE s = 'hello' AND b = 2`
	toks, err := lex(input)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.kind != tokString {
			continue
		}
		found = true
		if tok.text != "hello" {
			t.Fatalf("string token text = %q, want %q", tok.text, "hello")
		}
		if want := strings.IndexByte(input, '\''); tok.pos != want {
			t.Fatalf("string token pos = %d, want %d (the opening quote)", tok.pos, want)
		}
	}
	if !found {
		t.Fatal("no string token lexed")
	}
}

// TestTokenPosMonotonic: token positions are non-decreasing and in
// range; every token starts at its own first byte.
func TestTokenPosMonotonic(t *testing.T) {
	input := `SELECT 'a', 'b' , c FROM t WHERE d = 'x' AND e = $2`
	toks, err := lex(input)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, tok := range toks {
		if tok.pos < prev {
			t.Fatalf("token %q pos %d goes backwards (prev %d)", tok.text, tok.pos, prev)
		}
		if tok.pos > len(input) {
			t.Fatalf("token %q pos %d out of range", tok.text, tok.pos)
		}
		prev = tok.pos
	}
}

func TestStringEscapes(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`'plain'`, "plain"},
		{`'a\\b'`, `a\b`},            // \\ -> backslash
		{`'it\'s'`, "it's"},          // \' -> quote
		{`'say \"hi\"'`, `say "hi"`}, // \" -> double quote
		{`'\d'`, `\d`},               // unknown escape passes through verbatim
		{`'tab\there'`, `tab\there`},
	}
	for _, c := range cases {
		toks, err := lex("SELECT " + c.in + " FROM t")
		if err != nil {
			t.Fatalf("lex(%s): %v", c.in, err)
		}
		var got string
		ok := false
		for _, tok := range toks {
			if tok.kind == tokString {
				got, ok = tok.text, true
			}
		}
		if !ok || got != c.want {
			t.Errorf("lex(%s) string = %q, want %q", c.in, got, c.want)
		}
	}
	// A lone trailing backslash cannot terminate the literal.
	if _, err := lex(`SELECT '\`); err == nil {
		t.Error("trailing backslash: want unterminated-string error")
	}
	if _, err := lex(`SELECT '\'`); err == nil {
		t.Error(`'\'' escapes the closer: want unterminated-string error`)
	}
}

func TestLexParams(t *testing.T) {
	toks, err := lex("SELECT a FROM t WHERE b = $1 AND c < $12")
	if err != nil {
		t.Fatal(err)
	}
	var params []string
	for _, tok := range toks {
		if tok.kind == tokParam {
			params = append(params, tok.text)
		}
	}
	if len(params) != 2 || params[0] != "1" || params[1] != "12" {
		t.Fatalf("params = %v, want [1 12]", params)
	}
	if _, err := lex("SELECT $ FROM t"); err == nil {
		t.Error("bare '$': want error")
	}
}

func TestParseParams(t *testing.T) {
	stmt, err := Parse("SELECT count(*) FROM t WHERE a = $1 AND b BETWEEN $2 AND $3")
	if err != nil {
		t.Fatal(err)
	}
	slots := 0
	Walk(stmt.Where, func(e Expr) {
		if p, ok := e.(*ParamRef); ok && p.N == slots+1 {
			slots++
		}
	})
	if slots != 3 {
		t.Fatalf("WHERE holds $1..$%d, want $1..$3", slots)
	}
	if stmt.Where == nil || !strings.Contains(stmt.Where.String(), "$1") {
		t.Fatalf("WHERE lost the parameter: %v", stmt.Where)
	}
}

func TestParseStatementKinds(t *testing.T) {
	st, err := ParseStatement("PREPARE lookup AS SELECT a FROM t WHERE b = $1;")
	if err != nil {
		t.Fatal(err)
	}
	prep, ok := st.(*PrepareStmt)
	if !ok {
		t.Fatalf("got %T, want *PrepareStmt", st)
	}
	if prep.Name != "lookup" || prep.Stmt == nil {
		t.Fatalf("bad prepare: %+v", prep)
	}
	if prep.SQL != "SELECT a FROM t WHERE b = $1" {
		t.Fatalf("inner SQL = %q", prep.SQL)
	}

	st, err = ParseStatement("EXECUTE lookup (42, 'x', -1.5)")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*ExecuteStmt)
	if !ok {
		t.Fatalf("got %T, want *ExecuteStmt", st)
	}
	if ex.Name != "lookup" || len(ex.Args) != 3 {
		t.Fatalf("bad execute: %+v", ex)
	}

	st, err = ParseStatement("DEALLOCATE lookup")
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := st.(*DeallocateStmt); !ok || d.Name != "lookup" {
		t.Fatalf("got %#v, want DeallocateStmt{lookup}", st)
	}

	st, err = ParseStatement("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*SelectStmt); !ok {
		t.Fatalf("got %T, want *SelectStmt", st)
	}

	if _, err := ParseStatement("EXECUTE lookup (42"); err == nil {
		t.Error("unclosed arg list: want error")
	}
	if _, err := ParseStatement("PREPARE select AS SELECT a FROM t"); err == nil {
		t.Error("reserved word as statement name: want error")
	}
}

func TestNormalize(t *testing.T) {
	a, err := Normalize("SELECT  a ,b FROM t -- comment\nWHERE x = 'It''s'")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Normalize("select a, b from t where x = 'It''s'")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent statements normalize differently:\n%q\n%q", a, b)
	}
	// Distinct string literals must never collide, whatever their content.
	c1, _ := Normalize(`SELECT * FROM t WHERE a = 'x' AND b = 'y'`)
	c2, _ := Normalize(`SELECT * FROM t WHERE a = 'x'' AND b = ''y'`)
	if c1 == c2 {
		t.Fatalf("distinct statements collide after normalization: %q", c1)
	}
	// Identifier case folds; string case does not.
	d1, _ := Normalize("SELECT A FROM T")
	d2, _ := Normalize("select a from t")
	if d1 != d2 {
		t.Fatalf("ident case not folded: %q vs %q", d1, d2)
	}
	e1, _ := Normalize("SELECT 'A' FROM t")
	e2, _ := Normalize("SELECT 'a' FROM t")
	if e1 == e2 {
		t.Fatal("string literal case must be preserved")
	}
}
