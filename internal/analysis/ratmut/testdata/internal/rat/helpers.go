package rat

import "math/big"

// freshProduct returns a freshly allocated product of a and b; every
// returned big pointer is fresh, so the fixpoint makes it a fresh source.
func freshProduct(a, b *big.Rat) *big.Rat {
	out := new(big.Rat)
	out.Mul(a, b)
	return out
}

// first returns one of its operands unchanged: callers share storage
// with the argument, so it is not a fresh source.
func first(a, b *big.Rat) *big.Rat {
	_ = b
	return a
}

// CrossFresh mutates the result of a helper that always returns a fresh
// allocation, so the mutation is accepted.
func CrossFresh(a, b *big.Rat) *big.Rat {
	p := freshProduct(a, b)
	p.Add(p, p)
	return p
}

// CrossShared mutates a pass-through result that still aliases the
// operand a, so the receiver is treated as shared.
func CrossShared(a, b *big.Rat) *big.Rat {
	p := first(a, b)
	p.Add(p, b) // want `\[ratmut\] \(\*big\.Rat\)\.Add on a receiver that may alias an operand`
	return p
}

// DeadUnreachable exercises the CFG-based check walk: the mutating call
// after the return is unreachable, so it draws no diagnostic.
func DeadUnreachable(a, b *big.Rat) *big.Rat {
	return new(big.Rat).Add(a, b)
	p := first(a, b)
	p.Add(p, b)
	return p
}
