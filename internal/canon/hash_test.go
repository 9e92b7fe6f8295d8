package canon

import (
	"bytes"
	"strconv"
	"testing"

	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

func TestHashDeterministic(t *testing.T) {
	h1 := Hash(IntroCoin())
	h2 := Hash(IntroCoin())
	if h1 != h2 {
		t.Fatalf("two builds of IntroCoin hash differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not hex sha256", h1)
	}
}

func TestHashDistinguishesSystems(t *testing.T) {
	seen := map[string]string{}
	for name, sys := range map[string]*system.System{
		"introcoin": IntroCoin(),
		"vardi":     VardiCoin(),
		"die":       Die(),
		"fig1":      Fig1(),
		"async:3":   AsyncCoins(3),
	} {
		h := Hash(sys)
		if prev, ok := seen[h]; ok {
			t.Fatalf("%s and %s collide: %s", name, prev, h)
		}
		seen[h] = name
	}
}

func TestHashIgnoresTreeOrder(t *testing.T) {
	mk := func(adv, env string) *system.Tree {
		tb := system.NewTree(adv, gs("start-"+adv, "a", "b"))
		tb.Child(0, rat.One, gs(env, "a1", "b1"))
		tr, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	s1, err := system.New(2, mk("x", "ex"), mk("y", "ey"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := system.New(2, mk("y", "ey"), mk("x", "ex"))
	if err != nil {
		t.Fatal(err)
	}
	if Hash(s1) != Hash(s2) {
		t.Fatal("hash depends on tree supply order")
	}
}

func TestHashSensitiveToProbabilities(t *testing.T) {
	mk := func(p rat.Rat) *system.System {
		tb := system.NewTree("toss", gs("start", "a"))
		tb.Child(0, p, gs("h", "a"))
		tb.Child(0, rat.One.Sub(p), gs("t", "a"))
		tr, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := system.New(1, tr)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	if Hash(mk(rat.New(1, 2))) == Hash(mk(rat.New(2, 3))) {
		t.Fatal("hash insensitive to transition probabilities")
	}
}

// TestAppendQuote pins the hash stream's quoting to strconv.AppendQuote:
// every single-byte string, and strings that mix plain ASCII with the
// bytes the plain path must hand over: '"', '\\', DEL, UTF-8 and invalid
// UTF-8.
func TestAppendQuote(t *testing.T) {
	cases := []string{"", "r12.3|p0||p2|", "a0:t1:b3", "two words", "~ !#$%&'()*+,-./"}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}))
	}
	cases = append(cases, `say "hi"`, `back\slash`, "del\x7f", "tab\tin", "héllo", "日本",
		"bad\xffutf8", "cut\xe6\x97", "\xed\xa0\x80surrogate", "mix\"\\\x7f\xc3\xa9\xff", "\u2028")
	for _, s := range cases {
		got := appendQuote([]byte("n "), s)
		want := strconv.AppendQuote([]byte("n "), s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendQuote(%q) = %q, want %q", s, got, want)
		}
	}
}

var hashSink string

// BenchmarkHash hashes a kpabench-shaped system (3 agents, 2,048 runs × 8
// steps, 14,337 nodes), as every upload and uploaded-snapshot restore does.
func BenchmarkHash(b *testing.B) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 2048, RunLen: 8, Buckets: 16})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = Hash(sys)
	}
}
