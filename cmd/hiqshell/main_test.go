package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// transcript runs script through a fresh shell and returns its output lines
// with the prompts stripped.
func transcript(script []string) []string {
	var out strings.Builder
	sh := &shell{out: &out, eps: 0.5}
	sh.run(strings.NewReader(strings.Join(script, "\n") + "\n"))
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		for {
			rest, ok := strings.CutPrefix(l, "> ")
			if !ok {
				break
			}
			l = rest
		}
		if l != "" && l != ">" {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestDocSessionReplays replays the example session of the package comment:
// its commands, read from main.go itself, must print exactly the result
// lines it shows, in its order. An insert of the wrong arity, appended, must
// print one error line and leave the shell running.
func TestDocSessionReplays(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var script, want []string
	for _, l := range strings.Split(string(src), "\n") {
		if l == "package main" {
			break
		}
		body, ok := strings.CutPrefix(l, "//\t")
		if !ok {
			continue
		}
		if cmd, ok := strings.CutPrefix(body, "> "); ok {
			script = append(script, cmd)
		} else {
			want = append(want, body)
		}
	}
	if len(script) == 0 || len(want) == 0 {
		t.Fatal("the package comment has no example session")
	}
	script = append(script, "insert R 1 2 3", "count")
	lines := transcript(script)

	var results, errs []string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "("):
			results = append(results, l)
		case strings.HasPrefix(l, "error:"):
			errs = append(errs, l)
		}
	}
	if !slices.Equal(results, want) {
		t.Errorf("result lines %q, the package comment shows %q", results, want)
	}
	if len(errs) != 1 || !strings.Contains(errs[0], "has arity 3") {
		t.Errorf("error lines %q, want one arity error for the 3-value insert", errs)
	}
	if last := lines[len(lines)-1]; last != "2" {
		t.Errorf("count after the rejected insert printed %q, want 2", last)
	}
}

// TestShellErrors: a command the shell cannot run prints one line saying
// why and leaves the shell running.
func TestShellErrors(t *testing.T) {
	for _, c := range []struct {
		script []string
		want   string
	}{
		{[]string{"result"}, "error: build first"},
		{[]string{"build"}, "error: set a query first"},
		{[]string{"eps 2"}, "error: eps must be in [0, 1]"},
		{[]string{"query Q(A) = R(A)", "delete R 1"}, "error: deletes before build are not supported; build first"},
		{[]string{"insert R x"}, `error: bad value "x"`},
		{[]string{"frobnicate"}, `unknown command "frobnicate" — try 'help'`},
	} {
		lines := transcript(append(c.script, "eps 0.25"))
		if !slices.Contains(lines, c.want) {
			t.Errorf("%q printed %q, want the line %q", c.script, lines, c.want)
		}
		if lines[len(lines)-1] != "eps = 0.25" {
			t.Errorf("%q: the shell stopped running (last line %q)", c.script, lines[len(lines)-1])
		}
	}
}
