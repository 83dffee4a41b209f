package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"domd/internal/server"
)

// TestServeUsageAndOperationsDocAgree pins the anti-drift contract of
// the endpoint table: server.Endpoints() is the single source of truth,
// and both the `domd serve -h` usage text and docs/OPERATIONS.md must
// carry every row — pattern and operator description. (The mux side of
// the contract is enforced at construction: server.New panics when the
// table and the registered handlers disagree.)
func TestServeUsageAndOperationsDocAgree(t *testing.T) {
	usage := server.UsageText()
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("operations doc: %v", err)
	}
	doc := string(raw)

	eps := server.Endpoints()
	if len(eps) == 0 {
		t.Fatal("server.Endpoints() is empty")
	}
	for _, e := range eps {
		pattern := e.Method + " " + e.Path
		if e.Params != "" {
			pattern += "?" + e.Params
		}
		if !strings.Contains(usage, pattern) {
			t.Errorf("serve -h usage text is missing endpoint %q", pattern)
		}
		if !strings.Contains(usage, e.Doc) {
			t.Errorf("serve -h usage text is missing the description of %q: %q", pattern, e.Doc)
		}
		if !strings.Contains(doc, pattern) {
			t.Errorf("docs/OPERATIONS.md is missing endpoint %q", pattern)
		}
		if !strings.Contains(doc, e.Doc) {
			t.Errorf("docs/OPERATIONS.md is missing the description of %q: %q", pattern, e.Doc)
		}
	}
}

// TestMain lets a test run this binary as the domd CLI: with
// DOMD_TEST_MAIN=1 in the environment the process dispatches its
// arguments the way main does instead of running the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DOMD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSharedFlagsRegisteredWhereRead pins which subcommands define each
// shared data/training flag: a subcommand registers a flag only if it
// reads it, so a flag it would silently ignore is rejected instead. Each
// (subcommand, flag) pair runs the CLI as `domd <cmd> -<flag>=<v> -h`,
// which exits 0 after parsing when the flag is defined and 2 with
// "flag provided but not defined" when it is not — no data is loaded.
func TestSharedFlagsRegisteredWhereRead(t *testing.T) {
	values := map[string]string{
		"avails": "a.csv", "rccs": "r.csv", "gap": "10", "seed": "1",
		"trials": "0", "workers": "1", "load": "p.json", "save": "p.json",
	}
	all := []string{"avails", "rccs", "gap", "seed", "trials", "workers", "load", "save"}
	training := []string{"avails", "rccs", "gap", "seed", "trials", "workers"}
	defined := map[string][]string{
		"query":       all,
		"evaluate":    all,
		"importances": all,
		"train":       training,
		"serve":       training,
		"backtest":    training,
		"design":      {"avails", "rccs", "gap", "seed"},
		"drift":       {"avails", "rccs"},
	}
	for _, sc := range subcommands {
		want, ok := defined[sc.name]
		if !ok {
			continue // loadgen has its own flag set
		}
		for _, flagName := range all {
			isDefined := slices.Contains(want, flagName)
			cmd := exec.Command(os.Args[0], sc.name, "-"+flagName+"="+values[flagName], "-h")
			cmd.Env = append(os.Environ(), "DOMD_TEST_MAIN=1")
			out, err := cmd.CombinedOutput()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			undefined := strings.Contains(string(out), "flag provided but not defined: -"+flagName)
			switch {
			case isDefined && (code != 0 || undefined):
				t.Errorf("domd %s -%s: exit %d, want the flag defined:\n%s", sc.name, flagName, code, out)
			case !isDefined && (code != 2 || !undefined):
				t.Errorf("domd %s -%s: exit %d, want it rejected as not defined:\n%s", sc.name, flagName, code, out)
			}
		}
	}
}
