package rat

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	tests := []struct {
		name     string
		num, den int64
		want     string
	}{
		{"half", 1, 2, "1/2"},
		{"normalized", 2, 4, "1/2"},
		{"integer", 6, 3, "2"},
		{"zero", 0, 5, "0"},
		{"negative num", -1, 2, "-1/2"},
		{"negative den", 1, -2, "-1/2"},
		{"both negative", -3, -4, "3/4"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := New(tt.num, tt.den).String(); got != tt.want {
				t.Errorf("New(%d,%d) = %s, want %s", tt.num, tt.den, got, tt.want)
			}
		})
	}
}

func TestNewZeroDenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValue(t *testing.T) {
	var x Rat
	if !x.IsZero() {
		t.Error("zero value is not zero")
	}
	if got := x.Add(One); !got.Equal(One) {
		t.Errorf("0+1 = %s, want 1", got)
	}
	if got := x.String(); got != "0" {
		t.Errorf("zero String() = %q, want \"0\"", got)
	}
	if x.Sign() != 0 {
		t.Errorf("zero Sign() = %d", x.Sign())
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in   string
		want string
		ok   bool
	}{
		{"3/4", "3/4", true},
		{"0.25", "1/4", true},
		{"7", "7", true},
		{"-2/6", "-1/3", true},
		{"99/100", "99/100", true},
		{"", "", false},
		{"x", "", false},
		{"1/0", "", false},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := Parse(tt.in)
			if tt.ok != (err == nil) {
				t.Fatalf("Parse(%q) err = %v, want ok=%v", tt.in, err, tt.ok)
			}
			if tt.ok && got.String() != tt.want {
				t.Errorf("Parse(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse(\"bogus\") did not panic")
		}
	}()
	MustParse("bogus")
}

func TestArithmetic(t *testing.T) {
	a, b := New(1, 2), New(1, 3)
	if got := a.Add(b); !got.Equal(New(5, 6)) {
		t.Errorf("1/2+1/3 = %s", got)
	}
	if got := a.Sub(b); !got.Equal(New(1, 6)) {
		t.Errorf("1/2-1/3 = %s", got)
	}
	if got := a.Mul(b); !got.Equal(New(1, 6)) {
		t.Errorf("1/2*1/3 = %s", got)
	}
	if got := a.Div(b); !got.Equal(New(3, 2)) {
		t.Errorf("(1/2)/(1/3) = %s", got)
	}
	if got := a.Neg(); !got.Equal(New(-1, 2)) {
		t.Errorf("-(1/2) = %s", got)
	}
	if got := b.Inv(); !got.Equal(New(3, 1)) {
		t.Errorf("1/(1/3) = %s", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	Zero.Inv()
}

func TestComparisons(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !a.Less(b) || !a.LessEq(b) || !a.LessEq(a) {
		t.Error("Less/LessEq wrong")
	}
	if !b.Greater(a) || !b.GreaterEq(a) || !b.GreaterEq(b) {
		t.Error("Greater/GreaterEq wrong")
	}
	if a.Equal(b) || !a.Equal(New(2, 6)) {
		t.Error("Equal wrong")
	}
	if Min(a, b) != a || Max(a, b) != b {
		t.Error("Min/Max wrong")
	}
	if Min(b, a) != a || Max(b, a) != b {
		t.Error("Min/Max (swapped) wrong")
	}
}

func TestSumProd(t *testing.T) {
	if got := Sum(); !got.IsZero() {
		t.Errorf("Sum() = %s", got)
	}
	if got := Prod(); !got.IsOne() {
		t.Errorf("Prod() = %s", got)
	}
	if got := Sum(New(1, 4), New(1, 4), Half); !got.IsOne() {
		t.Errorf("Sum = %s, want 1", got)
	}
	if got := Prod(Half, Half, New(2, 1)); !got.Equal(Half) {
		t.Errorf("Prod = %s, want 1/2", got)
	}
}

func TestPow(t *testing.T) {
	tests := []struct {
		base Rat
		n    int
		want Rat
	}{
		{Half, 0, One},
		{Half, 1, Half},
		{Half, 10, New(1, 1024)},
		{New(2, 3), 3, New(8, 27)},
		{Zero, 5, Zero},
	}
	for _, tt := range tests {
		if got := Pow(tt.base, tt.n); !got.Equal(tt.want) {
			t.Errorf("Pow(%s,%d) = %s, want %s", tt.base, tt.n, got, tt.want)
		}
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k int64
		want Rat
	}{
		{0, 0, One},
		{1, 0, One},
		{1, 1, One},
		{5, 2, FromInt(10)},
		{10, 3, FromInt(120)},
		{10, 7, FromInt(120)},
		{52, 5, FromInt(2598960)},
		{4, -1, Zero},
		{4, 5, Zero},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); !got.Equal(tt.want) {
			t.Errorf("Binomial(%d,%d) = %s, want %s", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialRowSumsToPow2(t *testing.T) {
	// Σ_k C(n,k) = 2^n ties Binomial to Pow, the shape deliveryOutcomes
	// depends on: binomial delivery probabilities must sum to one.
	for n := int64(0); n <= 12; n++ {
		sum := Zero
		for k := int64(0); k <= n; k++ {
			sum = sum.Add(Binomial(n, k))
		}
		if want := Pow(New(2, 1), int(n)); !sum.Equal(want) {
			t.Errorf("sum C(%d,k) = %s, want %s", n, sum, want)
		}
	}
}

func TestBinomialNegativeNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1,0) did not panic")
		}
	}()
	Binomial(-1, 0)
}

func TestPowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow(x,-1) did not panic")
		}
	}()
	Pow(Half, -1)
}

func TestImmutability(t *testing.T) {
	a := New(1, 2)
	_ = a.Add(One)
	_ = a.Mul(New(7, 3))
	_ = a.Neg()
	_ = a.Inv()
	if !a.Equal(Half) {
		t.Errorf("operand mutated: a = %s", a)
	}
	// Big() must return a copy.
	b := a.Big()
	b.SetInt64(42)
	if !a.Equal(Half) {
		t.Error("Big() leaked internal state")
	}
	// FromBig must copy its argument.
	src := big.NewRat(1, 3)
	c := FromBig(src)
	src.SetInt64(9)
	if !c.Equal(New(1, 3)) {
		t.Error("FromBig aliased its argument")
	}
	if !FromBig(nil).IsZero() {
		t.Error("FromBig(nil) != 0")
	}
}

func TestInUnit(t *testing.T) {
	for _, x := range []Rat{Zero, One, Half, New(99, 100)} {
		if !x.InUnit() {
			t.Errorf("%s should be in [0,1]", x)
		}
	}
	for _, x := range []Rat{New(-1, 2), New(3, 2)} {
		if x.InUnit() {
			t.Errorf("%s should not be in [0,1]", x)
		}
	}
}

func TestFloat64(t *testing.T) {
	if got := Half.Float64(); got != 0.5 {
		t.Errorf("Half.Float64() = %v", got)
	}
}

func TestKey(t *testing.T) {
	if New(2, 4).Key() != New(1, 2).Key() {
		t.Error("equal rationals have different keys")
	}
	if New(1, 2).Key() == New(1, 3).Key() {
		t.Error("distinct rationals share a key")
	}
}

// qr builds a Rat from arbitrary int64s supplied by testing/quick,
// avoiding the zero denominator.
func qr(num, den int64) Rat {
	if den == 0 {
		den = 1
	}
	return New(num, den)
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := qr(an, ad), qr(bn, bd)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDistributesOverAdd(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := qr(an, ad), qr(bn, bd), qr(cn, cd)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := qr(an, ad), qr(bn, bd)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickParseRoundTrip(t *testing.T) {
	f := func(an, ad int64) bool {
		a := qr(an, ad)
		got, err := Parse(a.String())
		return err == nil && got.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpTotalOrder(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := qr(an, ad), qr(bn, bd)
		switch a.Cmp(b) {
		case -1:
			return b.Cmp(a) == 1 && a.Less(b)
		case 0:
			return a.Equal(b)
		case 1:
			return b.Cmp(a) == -1 && b.Less(a)
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInvInvolution(t *testing.T) {
	f := func(an, ad int64) bool {
		a := qr(an, ad)
		if a.IsZero() {
			return true
		}
		return a.Inv().Inv().Equal(a) && a.Mul(a.Inv()).IsOne()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := New(1, 3), New(2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkPow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Pow(Half, 64)
	}
}

func TestFrac64(t *testing.T) {
	max := new(big.Int).SetUint64(^uint64(0))
	over := new(big.Int).Add(max, big.NewInt(1))
	tests := []struct {
		name     string
		x        Rat
		num, den uint64
		ok       bool
	}{
		{"zero value", Rat{}, 0, 1, true},
		{"integer", FromInt(7), 7, 1, true},
		{"lowest terms", New(6, 8), 3, 4, true},
		{"max numerator", FromBig(new(big.Rat).SetInt(max)), ^uint64(0), 1, true},
		{"max denominator", FromBig(new(big.Rat).SetFrac(big.NewInt(1), max)), 1, ^uint64(0), true},
		{"numerator over", FromBig(new(big.Rat).SetInt(over)), 0, 0, false},
		{"denominator over", FromBig(new(big.Rat).SetFrac(big.NewInt(1), over)), 0, 0, false},
		{"negative", New(-1, 2), 0, 0, false},
	}
	for _, tc := range tests {
		num, den, ok := tc.x.Frac64()
		if ok != tc.ok || num != tc.num || den != tc.den {
			t.Errorf("%s: Frac64(%s) = %d/%d, %v; want %d/%d, %v",
				tc.name, tc.x, num, den, ok, tc.num, tc.den, tc.ok)
		}
	}
	for _, x := range []Rat{New(3, 7), FromInt(4), {}} {
		if n := testing.AllocsPerRun(100, func() { x.Frac64() }); n != 0 {
			t.Errorf("Frac64(%s) allocates %v times, want 0", x, n)
		}
	}
}

func TestScale64(t *testing.T) {
	pow2 := func(k uint) Rat {
		return FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), k)))
	}
	w, den, ok := Scale64([]Rat{New(1, 2), New(1, 3), New(1, 6)}, 62)
	if !ok || den != 6 || w[0] != 3 || w[1] != 2 || w[2] != 1 {
		t.Fatalf("Scale64(1/2, 1/3, 1/6) = %v over %d, %v; want [3 2 1] over 6", w, den, ok)
	}
	// 2^62 − 1 = 3 · 715827883 · 2147483647 is the largest 62-bit
	// denominator; 2^62 needs 63 bits.
	edge := FromBig(new(big.Rat).SetFrac(big.NewInt(1), big.NewInt(1<<62-1)))
	if w, den, ok := Scale64([]Rat{edge, One.Sub(edge)}, 62); !ok || den != 1<<62-1 || w[0] != 1 || w[1] != 1<<62-2 {
		t.Errorf("Scale64 at 2^62−1 = %v over %d, %v", w, den, ok)
	}
	if _, _, ok := Scale64([]Rat{pow2(61), pow2(62)}, 62); ok {
		t.Error("Scale64 accepted a common denominator of 2^62 under maxBits 62")
	}
	if w, den, ok := Scale64([]Rat{pow2(62)}, 63); !ok || den != 1<<62 || w[0] != 1 {
		t.Errorf("Scale64(2^-62, 63 bits) = %v over %d, %v", w, den, ok)
	}
	// The lcm, not the product: 1/(2^31·3) and 1/(2^31·5) share 2^31.
	a := FromBig(new(big.Rat).SetFrac64(1, 3<<31))
	b := FromBig(new(big.Rat).SetFrac64(1, 5<<31))
	if _, den, ok := Scale64([]Rat{a, b}, 62); !ok || den != 15<<31 {
		t.Errorf("Scale64 lcm = %d, %v; want %d", den, ok, uint64(15)<<31)
	}
	// A weight can overflow even when the denominator fits: 2 over 1.
	if _, _, ok := Scale64([]Rat{FromInt(2)}, 1); ok {
		t.Error("Scale64 accepted the 2-bit weight 2 under maxBits 1")
	}
	if _, _, ok := Scale64([]Rat{New(-1, 2)}, 62); ok {
		t.Error("Scale64 accepted a negative rational")
	}
	if w, den, ok := Scale64(nil, 62); !ok || den != 1 || len(w) != 0 {
		t.Errorf("Scale64(nil) = %v over %d, %v", w, den, ok)
	}
}
