package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"converse/internal/lint/analysis"
	"converse/internal/lint/load"
)

// TestFactStoreVetxRoundTrip pins the on-disk fact format: what one
// vet unit writes, the next must read back bit-identically — the whole
// cross-process fact flow rests on this.
func TestFactStoreVetxRoundTrip(t *testing.T) {
	s := NewFactStore()
	in := &WireKindsFact{
		Kinds:      []KindConst{{Name: "kA", Value: 1}, {Name: "kB", Value: 2}},
		Forwarders: map[string]int{"Forward": 1},
	}
	if err := s.add("wirekinds", "example.com/p", in); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := s.add("atomicmix", "example.com/p", &AtomicFact{Fields: []string{"p.T.f"}}); err != nil {
		t.Fatalf("add: %v", err)
	}
	path := filepath.Join(t.TempDir(), "p.vetx")
	if err := s.WriteVetx(path); err != nil {
		t.Fatalf("WriteVetx: %v", err)
	}

	r := NewFactStore()
	if err := r.ReadVetx(path); err != nil {
		t.Fatalf("ReadVetx: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("round-tripped store has %d facts, want 2", r.Len())
	}
	var out WireKindsFact
	if !r.get("wirekinds", "example.com/p", &out) {
		t.Fatal("wirekinds fact did not survive the round trip")
	}
	if len(out.Kinds) != 2 || out.Kinds[0].Name != "kA" || out.Kinds[1].Value != 2 ||
		out.Forwarders["Forward"] != 1 {
		t.Fatalf("fact mutated in round trip: %+v", out)
	}
	var am AtomicFact
	if !r.get("atomicmix", "example.com/p", &am) || len(am.Fields) != 1 {
		t.Fatalf("atomicmix fact mutated in round trip: %+v", am)
	}

	// An empty file is a valid empty store (go vet pre-creates outputs).
	empty := filepath.Join(t.TempDir(), "empty.vetx")
	if err := os.WriteFile(empty, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadVetx(empty); err != nil {
		t.Fatalf("ReadVetx(empty): %v", err)
	}
}

// TestRepoPlaneFactsDisjoint runs wirekinds over the real protocol
// packages and pins that the planes it extracts are non-empty and
// pairwise disjoint. This is the guard against a vacuously clean lint:
// if a refactor ever stopped the analyzer from seeing the mnet, ccs,
// or service/journal kind enums, `make lint` would stay green while
// proving nothing — this test would fail instead. It is also the
// repo-level statement of the acceptance property: renumbering a jk*
// or service kind into a neighboring plane makes wirekinds (and this
// test) fail.
func TestRepoPlaneFactsDisjoint(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source")
	}
	root := filepath.Join(filepath.Dir(self), "..", "..")
	units, err := load.PackagesAndDeps(root, "./internal/mnet", "./internal/ccs", "./internal/service")
	if err != nil {
		t.Fatalf("loading protocol packages: %v", err)
	}
	facts := NewFactStore()
	for _, u := range units {
		facts.NoteImports(u.ImportPath, u.Imports)
		if _, err := RunWithFacts(u, []*analysis.Analyzer{WireKinds}, facts); err != nil {
			t.Fatalf("wirekinds over %s: %v", u.ImportPath, err)
		}
	}

	wantMin := map[string]int{
		"converse/internal/mnet":    14, // fHello..fMonitorAddr, 3 and 4 retired
		"converse/internal/ccs":     5,  // kReq..kErr
		"converse/internal/service": 20, // kSubmit..kDrain + jk* journal records
	}
	seen := map[int64]string{}
	for path, min := range wantMin {
		var f WireKindsFact
		if !facts.get("wirekinds", path, &f) {
			t.Errorf("no wirekinds fact for %s: the plane went invisible, lint is vacuous", path)
			continue
		}
		if len(f.Kinds) < min {
			t.Errorf("%s plane has %d kinds, want >= %d: %v", path, len(f.Kinds), min, f.Kinds)
		}
		for _, k := range f.Kinds {
			if prev, dup := seen[k.Value]; dup {
				t.Errorf("planes overlap: %s.%s = %d already taken by %s", path, k.Name, k.Value, prev)
			}
			seen[k.Value] = path + "." + k.Name
		}
	}
}
