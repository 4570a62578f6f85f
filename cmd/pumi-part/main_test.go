package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/cmdutil"
)

// TestMain lets a test re-run this binary as the pumi-part command: with
// PUMI_PART_ARGS set, it runs main on those arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PUMI_PART_ARGS"); ok {
		os.Args = append([]string{"pumi-part"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPart runs pumi-part with args and returns its exit code and stderr.
func runPart(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PUMI_PART_ARGS="+args)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRejectsNonPositiveParts: a part count below one is a usage error,
// reported before the mesh is read, for every method.
func TestRejectsNonPositiveParts(t *testing.T) {
	for _, args := range []string{
		"-mesh missing.pumi -parts 0 -method hypergraph",
		"-mesh missing.pumi -parts -2 -method graph",
		"-mesh missing.pumi -parts 0",
	} {
		code, stderr := runPart(t, args)
		if code != cmdutil.ExitUsage || !strings.Contains(stderr, "-parts must be at least 1") {
			t.Errorf("pumi-part %s: exit %d, stderr %q; want a usage error", args, code, stderr)
		}
	}
}
