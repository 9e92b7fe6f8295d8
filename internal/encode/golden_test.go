package encode

import (
	"bytes"
	"encoding/json"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/gen"
	"kpa/internal/registry"
)

// benchConfig is a kpabench-shaped upload: one broom tree of 2,048 runs ×
// 8 steps (16,384 points, 14,337 nodes) over 3 agents with 16 buckets.
var benchConfig = gen.ScaleConfig{NumAgents: 3, NumRuns: 2048, RunLen: 8, Buckets: 16}

// benchDoc renders the benchConfig system as a compact document.
func benchDoc(tb testing.TB) []byte {
	tb.Helper()
	indented, err := Marshal(Encode(gen.MustScaleSystem(benchConfig)))
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, indented); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// goldenDigests pins canon.Hash for systems whose identity is persisted:
// snapshot filenames and upload dedup are keyed by these digests, so a
// change to the hash stream, the decoder or the builders shows up here.
var goldenDigests = map[string]string{
	"introcoin":   "685e5203c8b7a5686b85d5f692493e08f473fc85fcc8eac88a830599bf1392cc",
	"vardi":       "4a5f98062f73a0df89cc072147ff51a2a5afa7d86ba99e5ba094b0aeaeb0122e",
	"die":         "88a32a6d76011c3572c08cdac8f6861e2a88d28811f0355d1708d7c627e623c8",
	"biased":      "689ac34949e3f840d0f67e6ad9208d0671c037467cb06238bded9db8966ac343",
	"fig1":        "37732424274ff9bc2e4ff75f4539fa287be0cdae1c09385645d01e03bb0a4d28",
	"ca1":         "f7fe225ce0613ca233e2a0909ebc131bfafbdba88fab2a5a3a21575b99c1df07",
	"ca2":         "c09c03affbcc8a99d3d0dce3623692e4e6e4218afa37465642be79a66fdd0a87",
	"ca3":         "14cb1da47d22ccaf0b495a71c364c3f59967483d3c309f5ae5ca5a58acb063da",
	"canever":     "7a717de52d4ec127cfee689582cf419386b60eb35b5757ed2bb65076d400b22d",
	"aces-fixed":  "a44f851e62a61893346768f70ced67239016e1903b47d4c6be62032577ab6958",
	"aces-random": "51cc0aaeff8c3653eed8741e8b27e12f96b660eeeba56cbd25ce67f6d33eed37",
	"async:3":     "c46cb44a4697eaa5aa21802f470c29c2b913f5069e58495457d0fb49c57e0013",
	"scale:100k":  "0722665306368e22b0c02de9303b5b2b88a2fad220551fa6a6a7703eb93b081c",

	"coinDoc":  "c146d8a69fc4e9371699de1e3a4a8fa10cc44d435f5294d1d2624459b4d6df05",
	"benchDoc": "514af4da025b83bef4a9c54b46728201cfc1c213fac53fa1543ac0f0371c38aa",
}

func TestGoldenDigests(t *testing.T) {
	check := func(name, got string) {
		t.Helper()
		if want := goldenDigests[name]; got != want {
			t.Errorf("canon.Hash(%s) = %s, want %s", name, got, want)
		}
	}
	for name := range goldenDigests {
		if name == "coinDoc" || name == "benchDoc" {
			continue
		}
		e, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, canon.Hash(e.Sys))
	}
	for name, doc := range map[string][]byte{"coinDoc": []byte(coinDoc), "benchDoc": benchDoc(t)} {
		sys, _, err := Decode(doc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, canon.Hash(sys))
	}
	check("benchDoc", canon.Hash(gen.MustScaleSystem(benchConfig)))
}

// BenchmarkDecode decodes the kpabench-shaped document: the upload path's
// parse, tree build and uniqueness check.
func BenchmarkDecode(b *testing.B) {
	doc := benchDoc(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(doc); err != nil {
			b.Fatal(err)
		}
	}
}
