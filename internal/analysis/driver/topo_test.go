package driver

import (
	"reflect"
	"strings"
	"testing"
)

// TestTopoSort exercises the driver's ordering primitive directly:
// every local import must precede its importer, the order must be
// deterministic across calls, and a cycle must be an error, not a hang.
func TestTopoSort(t *testing.T) {
	mk := func(path string, imports ...string) *pkg {
		return &pkg{path: path, imports: imports}
	}
	pkgs := map[string]*pkg{
		"m/system":  mk("m/system"),
		"m/logic":   mk("m/logic", "m/system"),
		"m/service": mk("m/service", "m/logic", "m/system"),
		"m/rat":     mk("m/rat"),
		"m/core":    mk("m/core", "m/rat", "m/system"),
		"m/extern":  mk("m/extern", "other/module"), // non-local import: ignored
	}
	order, err := topoSort(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(pkgs) {
		t.Fatalf("topoSort returned %d packages, want %d", len(order), len(pkgs))
	}
	index := make(map[string]int, len(order))
	for i, p := range order {
		index[p.path] = i
	}
	for _, p := range pkgs {
		for _, dep := range p.imports {
			if _, ok := pkgs[dep]; !ok {
				continue
			}
			if index[dep] > index[p.path] {
				t.Errorf("%s sorted after its importer %s: %v", dep, p.path, paths(order))
			}
		}
	}

	again, err := topoSort(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(paths(order), paths(again)) {
		t.Errorf("topoSort is not deterministic:\nfirst: %v\nagain: %v", paths(order), paths(again))
	}
}

func TestTopoSortCycle(t *testing.T) {
	pkgs := map[string]*pkg{
		"m/a": {path: "m/a", imports: []string{"m/b"}},
		"m/b": {path: "m/b", imports: []string{"m/c"}},
		"m/c": {path: "m/c", imports: []string{"m/a"}},
	}
	_, err := topoSort(pkgs)
	if err == nil {
		t.Fatal("expected an import-cycle error, got none")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error %q does not mention the import cycle", err)
	}
}

func paths(order []*pkg) []string {
	out := make([]string, len(order))
	for i, p := range order {
		out[i] = p.path
	}
	return out
}
