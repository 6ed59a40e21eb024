package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"converse/internal/lint"
	"converse/internal/lint/analysistest"
)

// testdata returns the corpus directory for one analyzer.
func testdata(t *testing.T, name string) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source")
	}
	return filepath.Join(filepath.Dir(self), "testdata", "src", name)
}

func TestMsgOwnership(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "msgownership"), lint.MsgOwnership)
	// The acceptance gate: the corpus must actually exercise the rule.
	analysistest.MustFind(t, diags, `used after ownership transfer \(SyncSendAndFree`)
	analysistest.MustFind(t, diags, `used after ownership transfer \(Send\(\.\.\., Transfer\)`)
	analysistest.MustFind(t, diags, `used after ownership transfer \(SyncBroadcastAllAndFree`)
}

func TestHandlerReg(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "handlerreg"), lint.HandlerReg)
	analysistest.MustFind(t, diags, `raw integer literal as handler index`)
}

func TestBlockInHandler(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "blockinhandler"), lint.BlockInHandler)
	analysistest.MustFind(t, diags, `Scheduler with a negative count`)
	analysistest.MustFind(t, diags, `blocking receive GetSpecificMsg`)
	analysistest.MustFind(t, diags, `csync Lock\.Lock`)
}

func TestNoAllocInHot(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "noallocinhot"), lint.NoAllocInHot)
	analysistest.MustFind(t, diags, `append growth`)
	analysistest.MustFind(t, diags, `map creation`)
	analysistest.MustFind(t, diags, `heap-escaping composite literal`)
}

func TestWireKinds(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "wirekinds"), lint.WireKinds)
	analysistest.MustFind(t, diags, `raw integer literal 9 as frame kind`)
	analysistest.MustFind(t, diags, `raw integer literal 7 as frame kind`) // through the forwarder fact
	analysistest.MustFind(t, diags, `collides with .*AK2.*pairwise disjoint across packages`)
	analysistest.MustFind(t, diags, `collides with JKBad in the same package`)
	analysistest.MustFind(t, diags, `imported frame-kind planes overlap`)
	analysistest.MustFind(t, diags, `kind-dispatch switch has no default clause and misses declared kinds: AK3`)
	// A plane written only through wire.WriteJSON: raw kinds are still
	// flagged and its kinds are still exported.
	analysistest.MustFind(t, diags, `raw integer literal 203 as frame kind`)
	analysistest.MustFind(t, diags, `collides with .*/wirekinds/js\.JRep`)
}

func TestAtomicMix(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "atomicmix"), lint.AtomicMix)
	analysistest.MustFind(t, diags, `plain access to field .*Counter\.N`)
	analysistest.MustFind(t, diags, `address of field .*Counter\.N escapes`)
	analysistest.MustFind(t, diags, `accessed with sync/atomic in .*/atomicmix/a`) // cross-package, via the fact
}

func TestLockDiscipline(t *testing.T) {
	diags := analysistest.Run(t, testdata(t, "lockdiscipline"), lint.LockDiscipline)
	analysistest.MustFind(t, diags, `guarded by mu on 4 of 6 accesses`)
	analysistest.MustFind(t, diags, `guarded by Mu in .*/lockdiscipline/a`) // cross-package, via the fact
	analysistest.MustFind(t, diags, `lock order inversion`)
}

// TestSuiteRegistry pins the analyzer set: seven analyzers, stable
// names (the Makefile lint target and //lint:ignore directives depend
// on them), wired into both entrypoints — the standalone runner and
// the go vet -vettool path both serve lint.Analyzers(), so one list
// check covers both. The modular three must declare their fact types,
// or the drivers would never load dependencies first.
func TestSuiteRegistry(t *testing.T) {
	want := []string{
		"msgownership", "handlerreg", "blockinhandler", "noallocinhot",
		"wirekinds", "atomicmix", "lockdiscipline",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
	}
	modular := map[string]bool{"wirekinds": true, "atomicmix": true, "lockdiscipline": true}
	for _, a := range got {
		if modular[a.Name] != (len(a.FactTypes) > 0) {
			t.Errorf("analyzer %s: FactTypes=%d, modular=%v — fact declaration out of sync",
				a.Name, len(a.FactTypes), modular[a.Name])
		}
	}
	if !lint.HasFacts(got) {
		t.Error("HasFacts(full suite) = false; dependency loading would be skipped")
	}
	if _, err := lint.ByName([]string{"msgownership"}); err != nil {
		t.Errorf("ByName(msgownership): %v", err)
	}
	if _, err := lint.ByName([]string{"wirekinds", "lockdiscipline"}); err != nil {
		t.Errorf("ByName(wirekinds,lockdiscipline): %v", err)
	}
	if _, err := lint.ByName([]string{"nonsense"}); err == nil {
		t.Errorf("ByName(nonsense) should fail")
	}
}

// TestLintCoverageDerived asserts the packages lint runs over are
// derived from the module (`go list ./...`), never a hand-maintained
// list: the command binaries, the examples, and the public facade
// packages must all be in the derived set, and the Makefile's lint
// recipe must feed go vet the wildcard, not an enumeration.
func TestLintCoverageDerived(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source")
	}
	root := filepath.Join(filepath.Dir(self), "..", "..")
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		listed[line] = true
	}
	mustCover := []string{
		"converse",                   // the facade
		"converse/cmd/converselint",  // the linter lints itself
		"converse/cmd/converserun",   // launcher
		"converse/cmd/conversed",     // cluster daemon
		"converse/examples/jacobi",   // examples are user-facing idiom
		"converse/internal/service",  // the packages the new analyzers guard
		"converse/internal/mnet",
		"converse/internal/ccs",
	}
	for _, p := range mustCover {
		if !listed[p] {
			t.Errorf("go list ./... does not cover %s; lint coverage has a hole", p)
		}
	}
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	text := string(mk)
	lintIdx := strings.Index(text, "\nlint:")
	if lintIdx < 0 {
		t.Fatal("Makefile has no lint target")
	}
	recipe := text[lintIdx:]
	if end := strings.Index(recipe[1:], "\n\n"); end > 0 {
		recipe = recipe[:end+1]
	}
	if !strings.Contains(recipe, "-vettool=") || !strings.Contains(recipe, "./...") {
		t.Errorf("Makefile lint recipe must run go vet -vettool over ./... (derived), got:\n%s", recipe)
	}
}
