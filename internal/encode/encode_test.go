package encode

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

const coinDoc = `{
  "agents": 2,
  "trees": [
    {
      "adversary": "toss",
      "root": {
        "env": "start", "locals": ["p1:t0", "p2:t0"],
        "children": [
          {"prob": "1/2", "node": {"env": "h", "locals": ["p1:h", "p2:t1"]}},
          {"prob": "1/2", "node": {"env": "t", "locals": ["p1:t", "p2:t1"]}}
        ]
      }
    }
  ],
  "props": {
    "heads": {"envEquals": "h"},
    "notHeads": {"envEquals": "h", "negate": true},
    "sawH": {"local": {"agent": 1, "equals": "p1:h"}}
  }
}`

func TestDecodeCoin(t *testing.T) {
	sys, props, err := Decode([]byte(coinDoc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if sys.NumAgents() != 2 || len(sys.Trees()) != 1 {
		t.Fatal("wrong shape")
	}
	tree := sys.Trees()[0]
	if tree.NumRuns() != 2 || !tree.RunProb(0).Equal(rat.Half) {
		t.Fatal("wrong runs")
	}
	if !sys.IsSynchronous() {
		t.Error("decoded system should be synchronous")
	}
	h := system.Point{Tree: tree, Run: 0, Time: 1}
	if h.Env() != "h" {
		h = system.Point{Tree: tree, Run: 1, Time: 1}
	}
	if !props["heads"].Holds(h) {
		t.Error("heads prop wrong")
	}
	if props["notHeads"].Holds(h) {
		t.Error("negate wrong")
	}
	if !props["sawH"].Holds(h) {
		t.Error("local matcher wrong")
	}
}

// decodeErrorDocs are documents Decode must reject.
var decodeErrorDocs = []struct {
	name string
	doc  string
}{
	{"not json", `{`},
	{"unknown field", `{"agents": 1, "bogus": 1, "trees": []}`},
	{"no trees", `{"agents": 1, "trees": []}`},
	{"no adversary", `{"agents": 1, "trees": [{"root": {"env":"e","locals":["a"]}}]}`},
	{"bad probability", `{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"],
	   "children":[{"prob":"x","node":{"env":"f","locals":["a"]}}]}}]}`},
	{"probs not 1", `{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"],
	   "children":[{"prob":"1/3","node":{"env":"f","locals":["b"]}}]}}]}`},
	{"arity mismatch", `{"agents": 2, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}]}`},
	{"two matchers", `{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}],
	   "props": {"p": {"envEquals":"e","envContains":"e"}}}`},
	{"no matcher", `{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}],
	   "props": {"p": {}}}`},
	{"bad prop agent", `{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}],
	   "props": {"p": {"local":{"agent":5,"equals":"x"}}}}`},
	{"local needs matcher", `{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}],
	   "props": {"p": {"local":{"agent":1}}}}`},
}

func TestDecodeErrors(t *testing.T) {
	for _, tc := range decodeErrorDocs {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode([]byte(tc.doc)); err == nil {
				t.Errorf("Decode accepted %s", tc.name)
			}
		})
	}
}

// propMatcherDoc defines one proposition per matcher kind.
const propMatcherDoc = `{
  "agents": 1,
  "trees": [{"adversary":"t","root":{"env":"start-x","locals":["a"],
    "children":[{"prob":"1","node":{"env":"end-y","locals":["b"]}}]}}],
  "props": {
    "contains": {"envContains": "nd-"},
    "suffix": {"envHasSuffix": "-y"},
    "localContains": {"local": {"agent": 1, "contains": "b"}}
  }
}`

func TestPropMatchers(t *testing.T) {
	sys, props, err := Decode([]byte(propMatcherDoc))
	if err != nil {
		t.Fatal(err)
	}
	tree := sys.Trees()[0]
	p0 := system.Point{Tree: tree, Run: 0, Time: 0}
	p1 := system.Point{Tree: tree, Run: 0, Time: 1}
	if props["contains"].Holds(p0) || !props["contains"].Holds(p1) {
		t.Error("envContains wrong")
	}
	if props["suffix"].Holds(p0) || !props["suffix"].Holds(p1) {
		t.Error("envHasSuffix wrong")
	}
	if props["localContains"].Holds(p0) || !props["localContains"].Holds(p1) {
		t.Error("local contains wrong")
	}
}

// TestRoundTrip: Encode(sys) decodes back into an equivalent system, for
// the canonical systems and random ones.
func TestRoundTrip(t *testing.T) {
	systems := []*system.System{
		canon.IntroCoin(),
		canon.VardiCoin(),
		canon.Die(),
		canon.AsyncCoins(3),
		canon.BiasedPtsState(),
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		systems = append(systems, gen.MustSystem(rng, gen.DefaultConfig()))
	}
	for si, sys := range systems {
		doc := Encode(sys)
		data, err := Marshal(doc)
		if err != nil {
			t.Fatalf("system %d: Marshal: %v", si, err)
		}
		back, _, err := Decode(data)
		if err != nil {
			t.Fatalf("system %d: Decode: %v\n%s", si, err, truncate(string(data), 400))
		}
		if back.NumAgents() != sys.NumAgents() {
			t.Fatalf("system %d: agent count changed", si)
		}
		if len(back.Trees()) != len(sys.Trees()) {
			t.Fatalf("system %d: tree count changed", si)
		}
		for _, orig := range sys.Trees() {
			rt := back.TreeByAdversary(orig.Adversary)
			if rt == nil {
				t.Fatalf("system %d: missing tree %q", si, orig.Adversary)
			}
			if rt.NumRuns() != orig.NumRuns() || rt.NumNodes() != orig.NumNodes() {
				t.Fatalf("system %d tree %q: shape changed", si, orig.Adversary)
			}
			// Node IDs may be renumbered (the decoder builds depth-first),
			// but run enumeration order depends only on per-node edge
			// order, which is preserved: compare state sequences run-wise.
			for r := 0; r < orig.NumRuns(); r++ {
				if !rt.RunProb(r).Equal(orig.RunProb(r)) {
					t.Fatalf("system %d tree %q: run %d probability changed", si, orig.Adversary, r)
				}
				if rt.RunLen(r) != orig.RunLen(r) {
					t.Fatalf("system %d tree %q: run %d length changed", si, orig.Adversary, r)
				}
				for k := 0; k < orig.RunLen(r); k++ {
					if !rt.NodeAt(r, k).State.Equal(orig.NodeAt(r, k).State) {
						t.Fatalf("system %d tree %q: state at (%d,%d) changed",
							si, orig.Adversary, r, k)
					}
				}
			}
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func TestMarshalIsStable(t *testing.T) {
	doc := Encode(canon.Die())
	a, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(Encode(canon.Die()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("Marshal not deterministic")
	}
	if !strings.Contains(string(a), `"prob": "1/6"`) {
		t.Error("probabilities should serialize as rationals")
	}
}

// TestDecodeErrorMessages pins down the error *messages* for the failure
// modes a kpad client is most likely to hit, so the HTTP surface stays
// debuggable: the substring must name what is wrong, not just fail.
func TestDecodeErrorMessages(t *testing.T) {
	for _, tc := range decodeErrorMessageDocs {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Decode accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// decodeErrorMessageDocs pairs documents Decode must reject with a
// substring its error must contain.
var decodeErrorMessageDocs = []struct {
	name string
	doc  string
	want string
}{
	{
		"malformed probability",
		`{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"one half","node":{"env":"f","locals":["a"]}}]}}]}`,
		`bad probability "one half"`,
	},
	{
		"children sum below 1",
		`{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"1/3","node":{"env":"f","locals":["a"]}}]}}]}`,
		"sum",
	},
	{
		"children sum above 1",
		`{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"2/3","node":{"env":"f","locals":["a"]}},
		              {"prob":"2/3","node":{"env":"g","locals":["a"]}}]}}]}`,
		"sum",
	},
	{
		"negative probability",
		`{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"-1/2","node":{"env":"f","locals":["a"]}},
		              {"prob":"3/2","node":{"env":"g","locals":["a"]}}]}}]}`,
		"probability",
	},
	{
		"unknown prop matcher",
		`{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}],
		  "props": {"p": {"envMatches": "e"}}}`,
		"unknown field",
	},
	{
		"negate without matcher",
		`{"agents": 1, "trees": [{"adversary":"t","root":{"env":"e","locals":["a"]}}],
		  "props": {"p": {"negate": true}}}`,
		"exactly one matcher",
	},
	{
		"duplicate adversary",
		`{"agents": 1, "trees": [
		  {"adversary":"t","root":{"env":"e1","locals":["a"]}},
		  {"adversary":"t","root":{"env":"e2","locals":["a"]}}]}`,
		"t",
	},
}

// acceptanceDocs pin Decode's acceptance against referenceDecode. want is
// "" when both accept, "reject" when both reject, and otherwise a
// substring of Decode's error for a document only the reference accepts
// (a repeated key, which encoding/json lets the last one win).
var acceptanceDocs = []struct {
	name string
	doc  string
	want string
}{
	{"children before env, node before prob",
		`{"trees":[{"root":{"children":[{"node":{"locals":["b"],"env":"f"},"prob":"1"}],
		  "locals":["a"],"env":"e"},"adversary":"t"}],"agents":1}`, ""},
	{"keys fold by case",
		`{"AGENTS":1,"Trees":[{"adversary":"t","ROOT":{"Env":"e","LOCALS":["a"]}}]}`, ""},
	{"key folds by unicode",
		`{"agent` + "ſ" + `":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]}`, ""},
	{"escaped key",
		`{"agents":1,"trees":[{"adversary":"t","root":{"\u0065nv":"e\né","locals":["a\"b"]}}]}`, ""},
	{"null fields",
		`{"agents":2,"props":null,"trees":[{"adversary":"t","root":{"env":null,"locals":["a",null],
		  "children":null}}]}`, ""},
	{"null root", `{"agents":1,"trees":[{"adversary":"t","root":null}]}`, "reject"},
	{"null tree", `{"agents":1,"trees":[null]}`, "reject"},
	{"null prob", `{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":null,"node":{"env":"f","locals":["a"]}}]}}]}`, "reject"},
	{"null node", `{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"1","node":null}]}}]}`, "reject"},
	{"edge without node", `{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"1"}]}}]}`, "reject"},
	{"null document", `null`, "reject"},
	{"non-ASCII strings",
		`{"agents":1,"trees":[{"adversary":"tête","root":{"env":"é","locals":["ü✓"]}}]}`, ""},
	{"invalid UTF-8",
		"{\"agents\":1,\"trees\":[{\"adversary\":\"t\xff\",\"root\":{\"env\":\"e\xff\xfe\",\"locals\":[\"a\xc3\"]}}]}", ""},
	{"control byte in string",
		"{\"agents\":1,\"trees\":[{\"adversary\":\"t\",\"root\":{\"env\":\"e\x01\",\"locals\":[\"a\"]}}]}", "reject"},
	{"bad escape", `{"agents":1,"trees":[{"adversary":"t","root":{"env":"e\q","locals":["a"]}}]}`, "reject"},
	{"trailing bytes",
		`{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]} trailing {[`, ""},
	{"agents as float", `{"agents":1.0,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]}`, "reject"},
	{"agents as string", `{"agents":"1","trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]}`, "reject"},
	{"agents leading zero", `{"agents":01,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]}`, "reject"},
	{"trailing comma", `{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a",]}}]}`, "reject"},
	{"truncated", `{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]`, "reject"},
	{"env as number", `{"agents":1,"trees":[{"adversary":"t","root":{"env":5,"locals":["a"]}}]}`, "reject"},
	{"duplicate top key",
		`{"agents":1,"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]}}]}`,
		`duplicate key "agents"`},
	{"env and ENV",
		`{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","ENV":"f","locals":["a"]}}]}`,
		`duplicate key "ENV"`},
	{"repeated root merges in encoding/json",
		`{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"]},"root":{"env":"f"}}]}`,
		`duplicate key "root"`},
	{"repeated prob",
		`{"agents":1,"trees":[{"adversary":"t","root":{"env":"e","locals":["a"],
		  "children":[{"prob":"1/2","node":{"env":"f","locals":["a"]},"Prob":"1"}]}}]}`,
		`duplicate key "Prob"`},
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, tc := range acceptanceDocs {
		t.Run(tc.name, func(t *testing.T) {
			sys, props, err := Decode([]byte(tc.doc))
			refSys, refProps, refErr := referenceDecode([]byte(tc.doc))
			switch tc.want {
			case "":
				if err != nil || refErr != nil {
					t.Fatalf("want both to accept: Decode %v, reference %v", err, refErr)
				}
				if diff := sameDecoding(sys, props, refSys, refProps, canon.Hash); diff != "" {
					t.Fatalf("Decode and the reference disagree: %s", diff)
				}
			case "reject":
				if err == nil || refErr == nil {
					t.Fatalf("want both to reject: Decode %v, reference %v", err, refErr)
				}
			default:
				if refErr != nil {
					t.Fatalf("reference rejects: %v", refErr)
				}
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Decode error %v, want one naming %s", err, tc.want)
				}
				if duplicateKey([]byte(tc.doc)) == "" {
					t.Fatal("duplicateKey finds no repeated key")
				}
			}
		})
	}
}

// chainDoc is a tree of n single-child nodes, each with locals, above a
// leaf: the leaf's locals array nests 3n+5 deep.
func chainDoc(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"agents":1,"trees":[{"adversary":"t","root":`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"env":"e%d","locals":["a%d"],"children":[{"prob":"1","node":`, i, i)
	}
	fmt.Fprintf(&b, `{"env":"e%d","locals":["a%d"]}`, n, n)
	b.WriteString(strings.Repeat(`}]}`, n))
	b.WriteString(`}]}`)
	return []byte(b.String())
}

// TestDecodeNestingBound: encoding/json's 10,000-level nesting bound caps
// a chain at 3,331 single-child nodes above its leaf, in both decoders.
func TestDecodeNestingBound(t *testing.T) {
	ok := chainDoc(3331)
	sys, _, err := Decode(ok)
	if err != nil {
		t.Fatalf("Decode rejects a 3,331-level chain: %v", err)
	}
	if got := sys.Trees()[0].Depth(); got != 3331 {
		t.Fatalf("chain depth %d, want 3331", got)
	}
	if _, _, err := referenceDecode(ok); err != nil {
		t.Fatalf("reference rejects a 3,331-level chain: %v", err)
	}
	deep := chainDoc(3332)
	if _, _, err := Decode(deep); err == nil || !strings.Contains(err.Error(), "max depth") {
		t.Fatalf("Decode on a 3,332-level chain: %v, want a max depth error", err)
	}
	if _, _, err := referenceDecode(deep); err == nil {
		t.Fatal("reference accepts a 3,332-level chain")
	}
}

// TestDecodeStatesWithNULs: a NUL byte inside a component must not let two
// different global states share a key (env "a\x00b", local "c" against
// env "a", local "b\x00c").
func TestDecodeStatesWithNULs(t *testing.T) {
	doc := `{"agents":1,"trees":[{"adversary":"t","root":{"env":"a\u0000b","locals":["c"],
	  "children":[{"prob":"1","node":{"env":"a","locals":["b\u0000c"]}}]}}]}`
	sys, _, err := Decode([]byte(doc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	tree := sys.Trees()[0]
	root := system.Point{Tree: tree, Run: 0, Time: 0}
	child := system.Point{Tree: tree, Run: 0, Time: 1}
	for _, p := range []system.Point{root, child} {
		at := system.AtState(p.State())
		other := root
		if p == root {
			other = child
		}
		if !at.Holds(p) || at.Holds(other) {
			t.Errorf("AtState(%s) does not pick out its own point", p.State())
		}
		if pts := sys.PointsWithState(p.State()); len(pts) != 1 || pts[0] != p {
			t.Errorf("PointsWithState(%s) = %v, want [%v]", p.State(), pts, p)
		}
	}
}
