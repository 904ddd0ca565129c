package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expected.txt files")

// moduleRoot is the repository root relative to this package's directory,
// which is the working directory during go test.
const moduleRoot = "../.."

// fixtureDir is the root-relative directory of one analyzer's seeded
// fixture package.
func fixtureDir(name string) string {
	return filepath.ToSlash(filepath.Join("internal", "analysis", "testdata", "src", name))
}

// runFixture loads one analyzer's fixture package and runs only that
// analyzer over it.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("unknown analyzer %q", name)
	}
	prog, err := Load(moduleRoot, []string{fixtureDir(name)})
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return prog.Run([]*Analyzer{a})
}

func render(diags []Diagnostic) string {
	if len(diags) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestGolden compares each analyzer's full output over its fixture package
// against the checked-in expected.txt. Regenerate with go test -update.
func TestGolden(t *testing.T) {
	for _, a := range All {
		t.Run(a.Name, func(t *testing.T) {
			got := render(runFixture(t, a.Name))
			golden := filepath.Join("testdata", "src", a.Name, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestExactDiagnostics pins the exact (file, line, analyzer) of every
// seeded violation, independent of the message wording the goldens also
// cover.
func TestExactDiagnostics(t *testing.T) {
	type loc struct {
		file string
		line int
	}
	cases := []struct {
		analyzer string
		want     []loc
	}{
		{"clockuse", []loc{
			{"clockuse.go", 7}, {"clockuse.go", 10}, {"clockuse.go", 14}, {"clockuse.go", 18},
		}},
		{"mutexhold", []loc{
			{"mutexhold.go", 33}, {"mutexhold.go", 40}, {"mutexhold.go", 45},
			{"mutexhold.go", 52}, {"mutexhold.go", 59}, {"mutexhold.go", 66},
			{"mutexhold.go", 75},
		}},
		{"atomicmix", []loc{
			{"atomicmix.go", 22}, {"atomicmix.go", 26},
		}},
		{"nilrecv", []loc{
			{"nilrecv.go", 21},
		}},
		{"unitcheck", []loc{
			{"unitcheck.go", 9}, {"unitcheck.go", 17}, {"unitcheck.go", 21},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			diags := runFixture(t, tc.analyzer)
			if len(diags) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(tc.want), render(diags))
			}
			for i, d := range diags {
				wantFile := fixtureDir(tc.analyzer) + "/" + tc.want[i].file
				if d.Pos.Filename != wantFile || d.Pos.Line != tc.want[i].line {
					t.Errorf("diagnostic %d at %s:%d, want %s:%d",
						i, d.Pos.Filename, d.Pos.Line, wantFile, tc.want[i].line)
				}
				if d.Analyzer != tc.analyzer {
					t.Errorf("diagnostic %d from analyzer %q, want %q", i, d.Analyzer, tc.analyzer)
				}
			}
		})
	}
}

// TestDirectiveSuppression checks that the //fdlint:ignore lines seeded in
// the fixtures really silence their diagnostics: the fixtures contain
// violations on those lines that never show up in the goldens.
func TestDirectiveSuppression(t *testing.T) {
	suppressed := []struct {
		analyzer string
		line     int
	}{
		{"clockuse", 26},  // time.Now under //fdlint:ignore clockuse
		{"atomicmix", 39}, // plain read under //fdlint:ignore atomicmix
	}
	for _, s := range suppressed {
		t.Run(s.analyzer, func(t *testing.T) {
			for _, d := range runFixture(t, s.analyzer) {
				if d.Pos.Line == s.line {
					t.Errorf("line %d should be suppressed by its directive, got: %s", s.line, d)
				}
			}
		})
	}
}

// TestClockUseSanctionsSched checks the clock-boundary exemption list:
// a package whose import path ends in internal/sched (the timing-wheel
// scheduler) may read the wall clock directly, so the seeded time.Now and
// time.Since uses in the fixture must produce no diagnostics.
func TestClockUseSanctionsSched(t *testing.T) {
	a := ByName("clockuse")
	if a == nil {
		t.Fatal("unknown analyzer clockuse")
	}
	dir := filepath.ToSlash(filepath.Join(
		"internal", "analysis", "testdata", "src", "clockuse_sched", "internal", "sched"))
	prog, err := Load(moduleRoot, []string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	if diags := prog.Run([]*Analyzer{a}); len(diags) > 0 {
		t.Errorf("sanctioned internal/sched produced %d diagnostics:\n%s", len(diags), render(diags))
	}
}

// TestClockUseCoversStore pins the inverse of the sanction tests: the
// durable QoS store's import path (internal/store) is deliberately NOT on
// the clock-boundary exemption list — everything it persists is a
// detector timestamp — so the seeded time.Now and time.Since reads in the
// fixture must each produce a diagnostic.
func TestClockUseCoversStore(t *testing.T) {
	a := ByName("clockuse")
	if a == nil {
		t.Fatal("unknown analyzer clockuse")
	}
	dir := filepath.ToSlash(filepath.Join(
		"internal", "analysis", "testdata", "src", "clockuse_store", "internal", "store"))
	prog, err := Load(moduleRoot, []string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	diags := prog.Run([]*Analyzer{a})
	if len(diags) != 2 {
		t.Fatalf("unsanctioned internal/store produced %d diagnostics, want 2 (time.Now and time.Since):\n%s",
			len(diags), render(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "clockuse" {
			t.Errorf("diagnostic from %q, want clockuse: %s", d.Analyzer, d)
		}
	}
}

// TestClockUseCoversArena pins the newest non-exemption: the slab
// allocator's import path (internal/arena) stays under clockuse even
// though it is pure memory infrastructure — slot lifecycle is tracked by
// generation stamps, never timestamps, so any wall-clock read inside the
// arena is a bug. The seeded time.Now and time.Since reads in the fixture
// must each produce a diagnostic.
func TestClockUseCoversArena(t *testing.T) {
	a := ByName("clockuse")
	if a == nil {
		t.Fatal("unknown analyzer clockuse")
	}
	dir := filepath.ToSlash(filepath.Join(
		"internal", "analysis", "testdata", "src", "clockuse_arena", "internal", "arena"))
	prog, err := Load(moduleRoot, []string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	diags := prog.Run([]*Analyzer{a})
	if len(diags) != 2 {
		t.Fatalf("unsanctioned internal/arena produced %d diagnostics, want 2 (time.Now and time.Since):\n%s",
			len(diags), render(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "clockuse" {
			t.Errorf("diagnostic from %q, want clockuse: %s", d.Analyzer, d)
		}
	}
}

// TestRepoIsClean runs the full suite over the repository itself — the
// tree must stay free of findings so the lint gate in CI holds. Skipped in
// -short mode: loading every package (and its stdlib imports, from source)
// takes a few seconds.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo load is slow; run without -short")
	}
	dirs, err := FindPackageDirs(moduleRoot, ".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(moduleRoot, dirs)
	if err != nil {
		t.Fatal(err)
	}
	if diags := prog.Run(nil); len(diags) > 0 {
		t.Errorf("repository has %d findings:\n%s", len(diags), render(diags))
	}
}
