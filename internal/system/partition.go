package system

import (
	"math/bits"
	"slices"
)

// Partition is a partition of an index's points into blocks numbered in
// order of first occurrence by dense ID, in compressed-row form: the one
// layout for information cells (Index.Cells) and the sample spaces of the
// canonical assignments (core.PartitionAssignment). It is immutable.
type Partition struct {
	idx     *Index
	blockOf []int32 // dense ID → block
	off     []int32 // block k's members are ids[off[k]:off[k+1]]
	ids     []int32
}

// NumBlocks returns the number of blocks.
func (p *Partition) NumBlocks() int { return len(p.off) - 1 }

// BlockOf returns the block of the point with dense ID id.
func (p *Partition) BlockOf(id int) int { return int(p.blockOf[id]) }

// Members returns the dense IDs of block k in increasing order. The
// returned slice is shared and must not be modified.
func (p *Partition) Members(k int) []int32 {
	lo, hi := p.off[k], p.off[k+1]
	return p.ids[lo:hi:hi]
}

// PartitionBy partitions x's points by key(id), numbering blocks in order
// of first occurrence whatever the worker count: each of up to workers
// goroutines numbers the keys of its own IDs (phase 1), a serial merge in
// shard order reproduces the global order (phase 2), and each shard remaps
// its IDs (phase 3). key must be safe for concurrent calls.
func PartitionBy[K comparable](x *Index, workers int, key func(id int) K) *Partition {
	blockOf := make([]int32, len(x.points))
	perShard := ParMap(blockOf, workers, func(_ int, part []int32, lo int) []K {
		byKey := make(map[K]int32)
		var keys []K // in first-occurrence order
		for j := range part {
			k := key(lo + j)
			b, ok := byKey[k]
			if !ok {
				b = int32(len(keys))
				byKey[k] = b
				keys = append(keys, k)
			}
			part[j] = b // shard-local numbering, remapped in phase 3
		}
		return keys
	})
	if len(perShard) == 1 {
		return newPartition(x, len(perShard[0]), blockOf) // already global
	}
	global := make(map[K]int32)
	remap := make([][]int32, len(perShard))
	for s, keys := range perShard {
		remap[s] = make([]int32, len(keys))
		for j, k := range keys {
			g, ok := global[k]
			if !ok {
				g = int32(len(global))
				global[k] = g
			}
			remap[s][j] = g
		}
	}
	// ParFill reproduces ParMap's parts for an equal length and worker
	// count, so each ID is remapped through its own shard's table.
	ParFill(blockOf, workers, func(shard int, part []int32, _ int) {
		tab := remap[shard]
		for j, b := range part {
			part[j] = tab[b]
		}
	})
	return newPartition(x, len(global), blockOf)
}

// newPartition adopts blockOf and lays out the member lists in increasing
// ID order with one counting sort.
func newPartition(x *Index, numBlocks int, blockOf []int32) *Partition {
	off := make([]int32, numBlocks+1)
	for _, b := range blockOf {
		off[b+1]++
	}
	for k := 0; k < numBlocks; k++ {
		off[k+1] += off[k]
	}
	next := slices.Clone(off[:numBlocks])
	ids := make([]int32, len(blockOf))
	for id, b := range blockOf {
		ids[next[b]] = int32(id)
		next[b]++
	}
	return &Partition{idx: x, blockOf: blockOf, off: off, ids: ids}
}

// KnowExtension computes {c : block(c) ⊆ ext}, over an agent's cells the
// dense extension of K_i: the verdicts of knowVerdicts, fanned out through
// Spread. stop, when non-nil, is polled as knowVerdicts and Spread say;
// returning true abandons the sweep early (the partial result must be
// discarded).
func (p *Partition) KnowExtension(ext *DenseSet, workers int, stop func() bool) *DenseSet {
	return p.Spread(p.knowVerdicts(ext, workers, stop), workers, stop)
}

// knowVerdicts returns, per block, whether all its members are in ext:
// KnowExtension's verdicts. It walks each block's members up to the first
// one outside ext, sharded over blocks across up to workers goroutines.
// Over a dense ext the walks visit nearly every member, so they stop at
// the cost of the other way to the verdicts, failOutside's visit of the
// complement: 2·words + zeros, a popcount and the visit, where zeros are
// ext's clear bits, the tail's included. Each shard bounds its walks by
// its share of that cost. It counts zeros lazily, a word at a time and
// only once its walks have spent the bound the words counted so far
// allow, so a walk shorter than 2·words counts none. A shard that has
// counted all its words and spent the whole bound gives up, unless the
// members it has left cost less than the visit, and then failOutside sets
// every verdict. stop, when non-nil, is polled every 16 blocks of the
// walks, and before the visit and every 64 words of it.
func (p *Partition) knowVerdicts(ext *DenseSet, workers int, stop func() bool) []bool {
	pass := make([]bool, p.NumBlocks())
	words, n := len(ext.bits), len(p.blockOf)
	gaveUp := ParMap(pass, workers, func(_ int, part []bool, lo int) bool {
		// The shard's share of the visit's cost is its share, by members,
		// of 2·words, plus the zeros of its share of the words, which the
		// shards' word ranges tile. bound is that share as far as the
		// words counted so far show it, and left what the walks may still
		// spend of it.
		mine := int(p.off[lo+len(part)] - p.off[lo])
		counted, end := words*lo/len(pass), words*(lo+len(part))/len(pass)
		bound := 2 * words * mine / n
		left := bound
		// more counts the shard's words until the bound rises, and returns
		// the rise (0 once every word is counted).
		more := func() int {
			for counted < end {
				zeros := 64 - bits.OnesCount64(ext.bits[counted])
				counted++
				if zeros > 0 {
					bound += zeros
					return zeros
				}
			}
			return 0
		}
		for j := range part {
			k := lo + j
			if stop != nil && k&15 == 0 && stop() {
				return false
			}
			part[j] = true
			for _, id := range p.ids[p.off[k]:p.off[k+1]] {
				if left == 0 {
					if left = more(); left == 0 {
						// The bound is spent. Finish the walks if the
						// members left to them cost less than the visit.
						if left = int(p.off[lo+len(part)] - p.off[k]); left > bound {
							return true
						}
					}
				}
				left--
				if ext.Bit(int(id)) == 0 {
					part[j] = false
					break
				}
			}
		}
		return false
	})
	if slices.Contains(gaveUp, true) {
		p.failOutside(pass, ext, stop)
	}
	return pass
}

// failOutside sets pass[k] to whether block k has no member outside ext,
// from one visit of the complement's set bits.
func (p *Partition) failOutside(pass []bool, ext *DenseSet, stop func() bool) {
	if stop != nil && stop() {
		return
	}
	for k := range pass {
		pass[k] = true
	}
	n, last := len(p.blockOf), len(ext.bits)-1
	for w, word := range ext.bits {
		if stop != nil && w&63 == 0 && w > 0 && stop() {
			return
		}
		word = ^word
		if w == last && n%64 != 0 {
			word &= 1<<(n%64) - 1
		}
		for id0 := w * 64; word != 0; word &= word - 1 {
			pass[p.blockOf[id0+bits.TrailingZeros64(word)]] = false
		}
	}
}

// Everyone returns ⋂_k x.Cells(group[k]).KnowExtension(exts[k]): over a
// group's cells, the dense extension of E_G when every exts[k] is φ's, and
// of E_G^α when exts[k] is agent group[k]'s Pr(φ) ≥ α. The first agent's
// verdicts spread into a fresh set, and every further agent's failing
// cells are then cleared from that set in place (spreadOut), so the group
// builds one set, not one per agent. workers and stop are as for
// KnowExtension; a stopped sweep's partial result must be discarded.
func (x *Index) Everyone(group []AgentID, exts []*DenseSet, workers int, stop func() bool) *DenseSet {
	cells := x.Cells(group[0], workers)
	out := cells.KnowExtension(exts[0], workers, stop)
	for k, i := range group[1:] {
		cells = x.Cells(i, workers)
		cells.spreadOut(out, cells.knowVerdicts(exts[k+1], workers, stop), workers, stop)
	}
	return out
}

// spreadOut clears from out every member of a block whose verdict fails:
// out ∩ Spread(pass), written in place into a set the package is building.
// Like Spread it costs what it selects. It walks the failing blocks'
// members when (blocks + failing members) × workers ≤ |out|; otherwise it
// visits out's own members, sharded over out's words across up to workers
// goroutines, and clears those whose block fails. stop is polled every 16
// blocks of the walk and every 4096 IDs of the visit.
func (p *Partition) spreadOut(out *DenseSet, pass []bool, workers int, stop func() bool) {
	failing := 0
	for k, ok := range pass {
		if !ok {
			failing += int(p.off[k+1] - p.off[k])
		}
	}
	if failing == 0 {
		return
	}
	if (len(pass)+failing)*workers > out.Len() {
		ParFill(out.bits, workers, func(_ int, part []uint64, lo int) {
			for j, word := range part {
				if stop != nil && j&63 == 0 && j > 0 && stop() {
					return
				}
				id0 := (lo + j) * 64
				for ; word != 0; word &= word - 1 {
					k := bits.TrailingZeros64(word)
					if !pass[p.blockOf[id0+k]] {
						part[j] &^= 1 << k
					}
				}
			}
		})
		return
	}
	for k, ok := range pass {
		if stop != nil && k&15 == 0 && stop() {
			return
		}
		if ok {
			continue
		}
		for _, id := range p.ids[p.off[k]:p.off[k+1]] {
			out.bits[id>>6] &^= 1 << (id & 63)
		}
	}
}

// Spread returns {c : pass[block(c)]}: the one fan-out from per-block
// verdicts to point bits, shared by the K_i and Pr_i kernels. It costs
// what it selects. The members of the passing blocks are counted from the
// offsets, and the result starts from whichever of the empty and the full
// set is nearer, so at most n/2 members need writing: the passing blocks'
// into an empty set, or the failing blocks' out of a full one. A serial
// walk reads every block's verdict and writes those members; a sweep
// reads every point's block, sharded over the result's words across up to
// workers goroutines, and assembles each word from a byte table of the
// verdicts with no branch per point. Spread walks when (blocks + members
// written) × workers ≤ n, which holds at one or two workers unless the
// blocks are nearly as many as the points, and sweeps otherwise. stop,
// when non-nil, is polled every 16 blocks of the walk, and before the
// sweep and every 4096 IDs of it; returning true abandons the fan-out (the
// partial result must be discarded).
func (p *Partition) Spread(pass []bool, workers int, stop func() bool) *DenseSet {
	n := len(p.blockOf)
	passing := 0
	for k, ok := range pass {
		size := p.off[k+1] - p.off[k]
		if !ok {
			size = 0
		}
		passing += int(size)
	}
	full := 2*passing > n // write the failing side out of a full set
	written := passing
	if full {
		written = n - passing
	}
	if (len(pass)+written)*workers <= n {
		return p.spreadWalk(pass, full, stop)
	}
	return p.spreadSweep(pass, workers, stop)
}

// spreadWalk starts from the full set when full, else the empty one, and
// toggles the bits of every block whose verdict differs from full: the
// toggle sets a passing member in an empty set and clears a failing one
// from a full set. Member lists are disjoint, so each bit toggles once.
func (p *Partition) spreadWalk(pass []bool, full bool, stop func() bool) *DenseSet {
	var out *DenseSet
	if full {
		out = p.idx.FullDense()
	} else {
		out = p.idx.NewDense()
	}
	for k, ok := range pass {
		if stop != nil && k&15 == 0 && stop() {
			return out
		}
		if ok == full {
			continue
		}
		for _, id := range p.ids[p.off[k]:p.off[k+1]] {
			out.bits[id>>6] ^= 1 << (id & 63)
		}
	}
	return out
}

// spreadSweep assembles every word of the result from the verdicts of its
// 64 points' blocks, four independent accumulators of 16 bits each for a
// whole word. The sweep writes each word once, so the tail past the last
// point stays clear.
func (p *Partition) spreadSweep(pass []bool, workers int, stop func() bool) *DenseSet {
	out := p.idx.NewDense()
	if stop != nil && stop() {
		return out
	}
	verdict := make([]uint8, len(pass))
	for k, ok := range pass {
		var v uint8
		if ok {
			v = 1
		}
		verdict[k] = v
	}
	n := len(p.blockOf)
	ParFill(out.bits, workers, func(_ int, part []uint64, lo int) {
		for j := range part {
			id := (lo + j) * 64
			if stop != nil && id&4095 == 0 && stop() {
				return
			}
			var word uint64
			if id+64 <= n {
				blk := (*[64]int32)(p.blockOf[id : id+64])
				var w0, w1, w2, w3 uint64
				for k := 0; k < 16; k++ {
					w0 |= uint64(verdict[blk[k]]) << k
					w1 |= uint64(verdict[blk[k+16]]) << (k + 16)
					w2 |= uint64(verdict[blk[k+32]]) << (k + 32)
					w3 |= uint64(verdict[blk[k+48]]) << (k + 48)
				}
				word = w0 | w1 | w2 | w3
			} else {
				for k, b := range p.blockOf[id:] {
					word |= uint64(verdict[b]) << k
				}
			}
			part[j] = word
		}
	})
	return out
}

// RunWeightSums returns, per block k, the sum of the integer run weights
// (Tree.RunWeights, 0 in a tree without them) of block k's members: the
// base of the blocks' probability sums. It returns nil when some run has
// two points in one block, which the sum would count twice; in a
// synchronous system's cells and canonical sample spaces no run does. One
// pass over the IDs adds the weights and stamps each block with the run
// that last met it. stop, when non-nil, is polled every 4096 IDs;
// returning true abandons the pass, which returns nil.
func (p *Partition) RunWeightSums(stop func() bool) []uint64 {
	weight := p.idx.runWeights()
	sums := make([]uint64, p.NumBlocks())
	metBy := make([]int32, p.NumBlocks()) // 1 + the last run to meet block b
	run := int32(1)
	for id, b := range p.blockOf {
		if stop != nil && id&4095 == 0 && id > 0 && stop() {
			return nil
		}
		if metBy[b] == run {
			return nil
		}
		metBy[b] = run
		sums[b] += weight[id]
		run += int32(p.idx.runEnd[id/64] >> (id % 64) & 1)
	}
	return sums
}

// WeightIn returns, per block k, the sum of the run weights of block k's
// members in ext, given base = RunWeightSums(nil), so the weight of the
// block's runs that meet ext. The sum visits
// only the set bits of the smaller of ext and its complement: it adds the
// members in ext, or subtracts those outside it from base. It shards over
// ext's words across up to workers goroutines, each with its own
// accumulators, added up at the end. stop, when non-nil, is polled every
// 64 words; returning true abandons the sum (the partial result must be
// discarded).
func (p *Partition) WeightIn(ext *DenseSet, base []uint64, workers int, stop func() bool) []uint64 {
	n := len(p.blockOf)
	weight := p.idx.runWeights()
	outside := 2*ext.Len() > n // sum the complement, then subtract
	tail := ^uint64(0)
	if n%64 != 0 {
		tail = 1<<(n%64) - 1
	}
	last := len(ext.bits) - 1
	sums := ParMap(ext.bits, workers, func(_ int, part []uint64, lo int) []uint64 {
		acc := make([]uint64, len(base))
		for j, word := range part {
			if stop != nil && j&63 == 0 && j > 0 && stop() {
				return acc
			}
			if outside {
				word = ^word
				if lo+j == last {
					word &= tail
				}
			}
			id0 := (lo + j) * 64
			for ; word != 0; word &= word - 1 {
				id := id0 + bits.TrailingZeros64(word)
				acc[p.blockOf[id]] += weight[id]
			}
		}
		return acc
	})
	out := sums[0]
	for _, acc := range sums[1:] {
		for k, w := range acc {
			out[k] += w
		}
	}
	if outside {
		for k, w := range out {
			out[k] = base[k] - w
		}
	}
	return out
}
