package vetkit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// TestParseAllowsRejectsMalformed covers every malformed-annotation shape:
// each must be rejected with its own clear diagnostic, never silently
// ignored or silently accepted.
func TestParseAllowsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		comment string
		wantMsg string // substring of the expected diagnostic; "" = valid
	}{
		{"spaced directive", "// vetkit:allow determinism timing metric", "no space allowed between // and vetkit:allow"},
		{"missing rule", "//vetkit:allow", "missing rule name"},
		{"missing rule with spaces", "//vetkit:allow   ", "missing rule name"},
		{"unknown rule", "//vetkit:allow nosuchrule because reasons", `unknown rule "nosuchrule"`},
		{"missing reason", "//vetkit:allow determinism", "missing reason"},
		{"missing reason with spaces", "//vetkit:allow determinism   ", "missing reason"},
		{"valid", "//vetkit:allow determinism timing metric only", ""},
		{"unrelated word", "//vetkit:allowed is not a directive", ""},
		{"plain comment", "// nothing to see", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset, files := parseOne(t, "package p\n\nvar x = 1 "+tc.comment+"\n")
			allows, diags := ParseAllows(fset, files)
			if tc.wantMsg == "" {
				if len(diags) != 0 {
					t.Fatalf("valid annotation rejected: %v", diags)
				}
				return
			}
			if len(diags) != 1 {
				t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
			}
			if d := diags[0]; d.Rule != "allow" || !strings.Contains(d.Message, tc.wantMsg) {
				t.Errorf("diagnostic [%s] %q does not contain %q", d.Rule, d.Message, tc.wantMsg)
			}
			if len(allows.all) != 0 {
				t.Errorf("malformed annotation was also accepted: %+v", allows.all)
			}
		})
	}
}

// returnsAnalyzer reports a synthetic finding on every return statement:
// enough structure to drive the suppression and unused-allow machinery.
var returnsAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "test double: one finding per return statement",
	Run: func(p *Pass) error {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.ReturnStmt); ok {
					p.Reportf(r.Pos(), "synthetic finding")
				}
				return true
			})
		}
		return nil
	},
}

func runOn(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset, files := parseOne(t, src)
	diags, err := Run(&Target{
		Fset:  fset,
		Files: files,
		Pkg:   types.NewPackage("p", "p"),
		Info:  &types.Info{},
	}, []*Analyzer{returnsAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func TestAllowSuppressesSameLine(t *testing.T) {
	diags := runOn(t, `package p

func f() int {
	return 1 //vetkit:allow determinism covered by the equivalence suite
}
`)
	if len(diags) != 0 {
		t.Fatalf("trailing annotation did not suppress: %v", diags)
	}
}

func TestAllowSuppressesLineBelow(t *testing.T) {
	diags := runOn(t, `package p

func f() int {
	//vetkit:allow determinism covered by the equivalence suite
	return 1
}
`)
	if len(diags) != 0 {
		t.Fatalf("annotation-above form did not suppress: %v", diags)
	}
}

// TestAllowOnWrongLine pins the failure mode the unused-allow check exists
// for: an annotation that drifted away from its finding suppresses nothing,
// the finding comes back, and the stale annotation is itself diagnosed.
func TestAllowOnWrongLine(t *testing.T) {
	diags := runOn(t, `package p

//vetkit:allow determinism this sits two lines above the return
func f() int {
	return 1
}
`)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want finding + unused allow: %v", len(diags), diags)
	}
	if diags[0].Rule != "allow" || !strings.Contains(diags[0].Message, "matches no finding on this line or the line below") {
		t.Errorf("unused-allow diagnostic missing, got [%s] %q", diags[0].Rule, diags[0].Message)
	}
	if diags[1].Rule != "determinism" || diags[1].Message != "synthetic finding" {
		t.Errorf("original finding not restored, got [%s] %q", diags[1].Rule, diags[1].Message)
	}
}

// TestAllowWrongRule: an annotation naming a different rule neither
// suppresses the finding nor counts as unused (its analyzer is not in the
// run, so analysistest-style single-pass runs stay quiet about it).
func TestAllowWrongRule(t *testing.T) {
	diags := runOn(t, `package p

func f() int {
	return 1 //vetkit:allow lockdiscipline wrong rule for this finding
}
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want the unsuppressed finding only: %v", len(diags), diags)
	}
	if diags[0].Rule != "determinism" {
		t.Errorf("surviving diagnostic has rule %s, want determinism", diags[0].Rule)
	}
}

// TestUnusedAllow: a well-formed annotation whose analyzer ran but which
// suppressed nothing is reported, so fixed violations shed their stale
// annotations.
func TestUnusedAllow(t *testing.T) {
	diags := runOn(t, `package p

var x = 1 //vetkit:allow determinism nothing on this line to suppress
`)
	if len(diags) != 1 || diags[0].Rule != "allow" {
		t.Fatalf("got %v, want one unused-allow diagnostic", diags)
	}
	if !strings.Contains(diags[0].Message, "fix the annotation's placement or delete it") {
		t.Errorf("unexpected message %q", diags[0].Message)
	}
}
