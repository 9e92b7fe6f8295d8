// Package rat provides exact rational arithmetic helpers on top of
// math/big.Rat.
//
// Every probability in the Halpern–Tuttle framework is a rational number
// (transition probabilities like 1/2 or 2/3, run probabilities like 1/2^10,
// confidence thresholds like 99/100), so the whole library computes with
// exact rationals rather than floats. This package wraps the verbose
// *big.Rat API with value-style helpers that never mutate their arguments.
package rat

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Rat is an immutable rational number. The zero value is 0.
//
// Rat wraps *big.Rat but treats it as immutable: all operations return fresh
// values and never mutate operands, so Rats may be freely shared, stored in
// maps (via Key) and passed by value.
type Rat struct {
	r *big.Rat // nil means zero
}

// Common constants.
var (
	Zero = New(0, 1)
	One  = New(1, 1)
	Half = New(1, 2)
)

// New returns the rational num/den. It panics if den is zero; this is a
// programming error on the level of integer division by zero, not a runtime
// condition to handle.
func New(num, den int64) Rat {
	if den == 0 {
		panic("rat: zero denominator")
	}
	return Rat{r: big.NewRat(num, den)}
}

// FromInt returns n as a rational.
func FromInt(n int64) Rat { return New(n, 1) }

// FromBig returns a Rat copying the given *big.Rat. A nil argument yields 0.
func FromBig(r *big.Rat) Rat {
	if r == nil {
		return Rat{}
	}
	return Rat{r: new(big.Rat).Set(r)}
}

// Parse parses a rational from a string in any form big.Rat accepts:
// "3/4", "0.25", "1e-3", "7".
func Parse(s string) (Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return Rat{}, fmt.Errorf("rat: cannot parse %q", s)
	}
	return Rat{r: r}, nil
}

// MustParse is like Parse but panics on malformed input. It is intended for
// package-level constants and tests.
func MustParse(s string) Rat {
	r, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return r
}

// big returns the underlying *big.Rat, substituting a shared zero for nil.
// Callers must not mutate the result.
func (x Rat) big() *big.Rat {
	if x.r == nil {
		return zeroBig
	}
	return x.r
}

var zeroBig = new(big.Rat)

// Big returns a fresh *big.Rat equal to x.
func (x Rat) Big() *big.Rat { return new(big.Rat).Set(x.big()) }

// Add returns x + y.
func (x Rat) Add(y Rat) Rat { return Rat{r: new(big.Rat).Add(x.big(), y.big())} }

// Sub returns x − y.
func (x Rat) Sub(y Rat) Rat { return Rat{r: new(big.Rat).Sub(x.big(), y.big())} }

// Mul returns x · y.
func (x Rat) Mul(y Rat) Rat { return Rat{r: new(big.Rat).Mul(x.big(), y.big())} }

// Div returns x / y. It panics if y is zero.
func (x Rat) Div(y Rat) Rat {
	if y.IsZero() {
		panic("rat: division by zero")
	}
	return Rat{r: new(big.Rat).Quo(x.big(), y.big())}
}

// Neg returns −x.
func (x Rat) Neg() Rat { return Rat{r: new(big.Rat).Neg(x.big())} }

// Inv returns 1/x. It panics if x is zero.
func (x Rat) Inv() Rat {
	if x.IsZero() {
		panic("rat: inverse of zero")
	}
	return Rat{r: new(big.Rat).Inv(x.big())}
}

// Cmp compares x and y, returning −1, 0 or +1.
func (x Rat) Cmp(y Rat) int { return x.big().Cmp(y.big()) }

// Equal reports whether x == y. Unlike Cmp, it never cross-multiplies:
// *big.Rat values are always in lowest terms with a positive denominator,
// so equality is componentwise — allocation-free, which matters on hot
// paths that compare probabilities.
func (x Rat) Equal(y Rat) bool {
	a, b := x.big(), y.big()
	return a.Num().Cmp(b.Num()) == 0 && a.Denom().Cmp(b.Denom()) == 0
}

// Less reports whether x < y.
func (x Rat) Less(y Rat) bool { return x.Cmp(y) < 0 }

// LessEq reports whether x ≤ y.
func (x Rat) LessEq(y Rat) bool { return x.Cmp(y) <= 0 }

// Greater reports whether x > y.
func (x Rat) Greater(y Rat) bool { return x.Cmp(y) > 0 }

// GreaterEq reports whether x ≥ y.
func (x Rat) GreaterEq(y Rat) bool { return x.Cmp(y) >= 0 }

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.r == nil || x.r.Sign() == 0 }

// IsOne reports whether x == 1. Componentwise on the normalized
// representation (1/1), so it is allocation-free.
func (x Rat) IsOne() bool {
	return x.r != nil && x.r.Num().Cmp(x.r.Denom()) == 0
}

// Sign returns −1, 0 or +1 according to the sign of x.
func (x Rat) Sign() int { return x.big().Sign() }

// Min returns the smaller of x and y.
func Min(x, y Rat) Rat {
	if x.Cmp(y) <= 0 {
		return x
	}
	return y
}

// Max returns the larger of x and y.
func Max(x, y Rat) Rat {
	if x.Cmp(y) >= 0 {
		return x
	}
	return y
}

// Sum returns the sum of all arguments (0 for none).
func Sum(xs ...Rat) Rat {
	acc := new(big.Rat)
	for _, x := range xs {
		acc.Add(acc, x.big())
	}
	return Rat{r: acc}
}

// Prod returns the product of all arguments (1 for none).
func Prod(xs ...Rat) Rat {
	acc := big.NewRat(1, 1)
	for _, x := range xs {
		acc.Mul(acc, x.big())
	}
	return Rat{r: acc}
}

// Binomial returns the binomial coefficient C(n, k) as an exact rational.
// It is 0 when k < 0 or k > n (the usual combinatorial convention) and
// panics for negative n, which is a programming error on the level of a
// negative slice length. Protocol code uses it for grouped message-
// delivery outcomes: the number delivered out of n independent copies is
// Binomial(n, q)-distributed.
func Binomial(n, k int64) Rat {
	if n < 0 {
		panic("rat: negative n in binomial coefficient")
	}
	if k < 0 || k > n {
		return Zero
	}
	return Rat{r: new(big.Rat).SetInt(new(big.Int).Binomial(n, k))}
}

// Pow returns x^n for n ≥ 0. It panics for negative n.
func Pow(x Rat, n int) Rat {
	if n < 0 {
		panic("rat: negative exponent")
	}
	acc := big.NewRat(1, 1)
	base := x.Big()
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			acc.Mul(acc, base)
		}
		base.Mul(base, base)
	}
	return Rat{r: acc}
}

// Float64 returns the nearest float64 approximation of x.
func (x Rat) Float64() float64 {
	f, _ := x.big().Float64()
	return f
}

// String renders x as "num/den" ("num" when den is 1).
func (x Rat) String() string {
	b := x.big()
	if b.IsInt() {
		return b.Num().String()
	}
	return b.RatString()
}

// Key returns a canonical string form suitable as a map key.
func (x Rat) Key() string { return x.big().RatString() }

// InUnit reports whether 0 ≤ x ≤ 1.
func (x Rat) InUnit() bool { return x.Sign() >= 0 && x.LessEq(One) }

// Frac64 returns a non-negative x in lowest terms as num/den with both
// parts in uint64, and false when x is negative or either part needs more
// than 64 bits. It does not allocate, so integer kernels can call it per
// query to move a bound off the big.Rat path.
func (x Rat) Frac64() (num, den uint64, ok bool) {
	b := x.big()
	if b.Sign() < 0 {
		return 0, 0, false
	}
	n := b.Num()
	if !n.IsUint64() {
		return 0, 0, false
	}
	if b.IsInt() {
		return n.Uint64(), 1, true
	}
	d := b.Denom()
	if !d.IsUint64() {
		return 0, 0, false
	}
	return n.Uint64(), d.Uint64(), true
}

// Scale64 puts the rationals over their least common denominator D:
// xs[k] = weights[k]/D exactly. It returns false when some x is negative
// or does not fit Frac64, or when D or any weight needs more than maxBits
// bits (maxBits ≤ 64). Choosing maxBits below 64 leaves headroom: weights
// whose total is at most D < 2^maxBits can be summed in a uint64 without
// overflow.
func Scale64(xs []Rat, maxBits uint) (weights []uint64, den uint64, ok bool) {
	fits := func(v uint64) bool { return maxBits >= 64 || v>>maxBits == 0 }
	den = 1
	for _, x := range xs {
		_, d, ok := x.Frac64()
		if !ok {
			return nil, 0, false
		}
		if den%d == 0 {
			continue
		}
		// lcm(den, d) = den · (d / gcd(den, d)), checked for overflow.
		hi, lcm := bits.Mul64(den, d/gcd64(den, d))
		if hi != 0 || !fits(lcm) {
			return nil, 0, false
		}
		den = lcm
	}
	if !fits(den) {
		return nil, 0, false
	}
	weights = make([]uint64, len(xs))
	for k, x := range xs {
		n, d, _ := x.Frac64()
		hi, w := bits.Mul64(n, den/d)
		if hi != 0 || !fits(w) {
			return nil, 0, false
		}
		weights[k] = w
	}
	return weights, den, true
}

// gcd64 is Euclid's algorithm on uint64; a and b are not both zero.
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
