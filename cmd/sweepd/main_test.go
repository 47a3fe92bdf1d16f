package main

import (
	"errors"
	"strings"
	"testing"
)

// Bad invocations must fail fast as usage errors (exit 2) before a
// socket is bound or a journal touched: these run run() only on flag
// combinations that cannot reach the serve loop.
func TestRunRejectsBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no mode", nil, "need a mode"},
		{"unknown mode", []string{"conduct"}, "unknown mode"},
		{"coordinate without dir", []string{"coordinate", "-exp", "eq3"}, "needs -dir"},
		{"coordinate unknown experiment", []string{"coordinate", "-dir", "work", "-exp", "nosuch"}, "unknown experiment"},
		{"coordinate unparsable flag", []string{"coordinate", "-lease", "soon"}, "invalid value"},
		{"work without addr", []string{"work", "-dir", "work"}, "needs -addr"},
		{"work without dir", []string{"work", "-addr", "http://host:7600"}, "needs -dir"},
		{"coordinate stray argument", []string{"coordinate", "-dir", "work", "-exp", "nosuch", "-json", "-seed", "1"}, `unexpected argument "1"`},
		{"work stray argument", []string{"work", "-dir", "work", "extra"}, `unexpected argument "extra"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("run(%q) accepted a bad invocation", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
			var ue usageError
			if !errors.As(err, &ue) {
				t.Errorf("run(%q) error is not a usageError (would exit 1, want 2)", tc.args)
			}
		})
	}
}

func TestSelectExperimentsAll(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("'all' selected no experiments")
	}
	two, err := selectExperiments("eq3, cor2")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].Name != "eq3" || two[1].Name != "cor2" {
		t.Fatalf("selectExperiments(\"eq3, cor2\") = %v", two)
	}
}
