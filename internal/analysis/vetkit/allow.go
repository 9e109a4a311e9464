package vetkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Rules is the registry of rule names //vetkit:allow may suppress — the
// analyzer names shipped by cmd/vetkit. Annotations naming anything else
// are rejected so a typo cannot silently disable nothing.
var Rules = []string{"determinism", "lockdiscipline", "oracletaxonomy"}

func knownRule(name string) bool {
	for _, r := range Rules {
		if r == name {
			return true
		}
	}
	return false
}

// Allow is one parsed //vetkit:allow annotation. It suppresses findings of
// the named rule on its own line and on the line directly below it (the
// annotation-above-the-statement form).
type Allow struct {
	Pos    token.Pos
	File   string
	Line   int
	Rule   string
	Reason string
	used   bool
}

// Allows indexes the valid annotations of one package.
type Allows struct {
	byLoc map[string][]*Allow // "file:line:rule" -> annotations
	all   []*Allow
}

// allowDirective splits a comment into (text, true) when it carries the
// allow marker, tolerating the malformed spaced form so it can be
// diagnosed rather than silently ignored.
func allowDirective(c *ast.Comment) (string, bool, bool) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return "", false, false
	}
	trimmed := strings.TrimLeft(text, " \t")
	if !strings.HasPrefix(trimmed, "vetkit:allow") {
		return "", false, false
	}
	rest := strings.TrimPrefix(trimmed, "vetkit:allow")
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false, false // e.g. "vetkit:allowed", some other word
	}
	spaced := trimmed != text // "// vetkit:allow" is not a valid directive
	return strings.TrimSpace(rest), spaced, true
}

// ParseAllows extracts every //vetkit:allow annotation from the files and
// returns the valid ones plus a diagnostic (rule "allow") for each
// malformed annotation: directive with leading space, missing rule name,
// unknown rule name, or missing reason.
func ParseAllows(fset *token.FileSet, files []*ast.File) (*Allows, []Diagnostic) {
	out := &Allows{byLoc: map[string][]*Allow{}}
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Rule: "allow", Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, spaced, ok := allowDirective(c)
				if !ok {
					continue
				}
				if spaced {
					bad(c.Pos(), "malformed //vetkit:allow: no space allowed between // and vetkit:allow (directives are machine-read)")
					continue
				}
				rule, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if rule == "" {
					bad(c.Pos(), "malformed //vetkit:allow: missing rule name (want //vetkit:allow <rule> <reason>)")
					continue
				}
				if !knownRule(rule) {
					bad(c.Pos(), "//vetkit:allow names unknown rule %q (known rules: %s)", rule, strings.Join(Rules, ", "))
					continue
				}
				if reason == "" {
					bad(c.Pos(), "//vetkit:allow %s: missing reason — every suppression must say why the finding is safe", rule)
					continue
				}
				p := fset.Position(c.Pos())
				a := &Allow{Pos: c.Pos(), File: p.Filename, Line: p.Line, Rule: rule, Reason: reason}
				out.all = append(out.all, a)
				for _, line := range []int{a.Line, a.Line + 1} {
					key := locKey(a.File, line, rule)
					out.byLoc[key] = append(out.byLoc[key], a)
				}
			}
		}
	}
	return out, diags
}

func locKey(file string, line int, rule string) string {
	return fmt.Sprintf("%s:%d:%s", file, line, rule)
}

// suppress reports whether a finding of rule at pos is covered by an
// annotation, marking the annotation used.
func (a *Allows) suppress(pos token.Position, rule string) bool {
	matches := a.byLoc[locKey(pos.Filename, pos.Line, rule)]
	if len(matches) == 0 {
		return false
	}
	for _, m := range matches {
		m.used = true
	}
	return true
}

// unused returns one diagnostic per annotation that suppressed no finding
// of a rule whose analyzer actually ran: either the annotated violation
// was fixed (delete the annotation) or the annotation sits on the wrong
// line and is suppressing nothing.
func (a *Allows) unused(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	sort.Slice(a.all, func(i, j int) bool {
		if a.all[i].File != a.all[j].File {
			return a.all[i].File < a.all[j].File
		}
		return a.all[i].Line < a.all[j].Line
	})
	for _, al := range a.all {
		if !al.used && ran[al.Rule] {
			out = append(out, Diagnostic{
				Pos:  al.Pos,
				Rule: "allow",
				Message: fmt.Sprintf("//vetkit:allow %s matches no finding on this line or the line below — fix the annotation's placement or delete it",
					al.Rule),
			})
		}
	}
	return out
}
