// Package sampling draws measurement shots from a state-vector
// probability distribution — the "sampling shots from this unitary"
// half of the paper's QCrank runtime budget (§3), which for large
// images rivals the unitary computation itself.
//
// Every caller wants a histogram, never a list of shots, so the
// multinomial histogram is drawn directly, by conditional binomial
// splitting down a sum tree (Davis, CSDA 1993): a node that receives k
// shots sends a Binomial(k, left/total) share of them to its left child
// and the rest to its right. The leaves are blocks of 64 outcomes, whose
// sums the pass that validates the probabilities writes; a block splits
// its shots down six more levels, its own sum tree. A node that receives
// at most 32 shots walks them down one at a time instead. So a draw
// costs about one binomial per node its shots reach, which stops growing
// with the shots once they outnumber the outcomes, and reads only the
// blocks its shots land in. Binomials are exact: Bernoulli for one shot,
// inversion up to a mean of 30, BTPE (Kachitvichyanukul & Schmeiser,
// CACM 1988) above.
//
// Every node draws on a stream of its own, keyed by its index and one
// output of the caller's RNG, so the counts are a pure function of the
// probabilities' bits, the shots and the seed, however many workers
// SampleParallel hands the top subtrees to, and on every architecture:
// BTPE's logarithm is Go code here (math.Log has an amd64 assembly
// body), and every product that feeds an add is rounded on its own.
package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"qgear/internal/qmath"
	"qgear/internal/statevec"
)

// Counts maps basis-state index to observed shot count.
type Counts map[uint64]int

// Total returns the number of shots recorded.
func (c Counts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// TopK returns the k most frequent outcomes in descending count order
// (ties broken by index for determinism); none for k ≤ 0.
func (c Counts) TopK(k int) []uint64 {
	keys := make([]uint64, 0, len(c))
	for key := range c {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c[keys[i]] != c[keys[j]] {
			return c[keys[i]] > c[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys[:max(0, min(k, len(keys)))]
}

// Bitstring renders basis index i as an n-character bitstring with
// qubit 0 rightmost (Qiskit little-endian display convention).
func Bitstring(i uint64, n int) string {
	var buf [64]byte // every index fits; the string conversion is the one allocation
	return string(AppendBitstring(buf[:0], i, n))
}

// AppendBitstring appends Bitstring(i, n) to dst, for callers rendering
// many outcomes into one buffer.
func AppendBitstring(dst []byte, i uint64, n int) []byte {
	for q := n - 1; q >= 0; q-- {
		dst = append(dst, '0'+byte(i>>uint(q)&1))
	}
	return dst
}

// String renders counts sorted by frequency, e.g. `{"00": 512, "11": 488}`.
func (c Counts) String() string {
	keys := c.TopK(len(c))
	n := 1
	for _, k := range keys {
		for k >= 1<<uint(n) {
			n++
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%q: %d", Bitstring(k, n), c[k])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Marginal reduces counts to the listed qubits: output bit j of each
// key is input bit qubits[j]. QCrank's decoder uses this to split shots
// into (address, data) parts.
func (c Counts) Marginal(qubits []int) Counts {
	out := make(Counts, len(c))
	for key, n := range c {
		var m uint64
		for j, q := range qubits {
			m |= (key >> uint(q) & 1) << uint(j)
		}
		out[m] += n
	}
	return out
}

const (
	blockBits = 6  // log2 of the outcomes in a leaf of the sum tree, one 512-byte block
	walkShots = 32 // the most shots a node walks down one at a time
	// topTasks is how many subtrees the draw is cut into, at a fixed
	// level so the cut cannot change a count; workers claim them one at a
	// time, so one held up elsewhere holds little of the draw.
	topTasks = 64
)

// Sample is SampleParallel on the caller alone, with the same counts.
func Sample(probs []float64, shots int, rng *qmath.RNG) (Counts, error) {
	return SampleParallel(probs, shots, 1, rng)
}

// SampleParallel draws shots from probs, finite and non-negative with
// a positive total that need not be 1, on up to workers goroutines, with
// the same counts on any number; it takes one output of rng, none for
// zero shots.
func SampleParallel(probs []float64, shots, workers int, rng *qmath.RNG) (Counts, error) {
	if shots < 0 {
		return nil, fmt.Errorf("sampling: negative shots %d", shots)
	}
	if len(probs) == 0 {
		return nil, fmt.Errorf("sampling: empty distribution")
	}
	leaves, outWords := shape(len(probs), shots)
	t := &tree{probs: probs, leaves: leaves, tasks: min(leaves, topTasks), workers: workers}
	t.sums = statevec.TakeScratch(bits.Len(uint(2*leaves - 1)))
	defer statevec.PutScratch(t.sums)
	if err := t.sum(); err != nil {
		return nil, err
	}
	if shots == 0 {
		return Counts{}, nil
	}
	t.out = statevec.TakeScratch(bits.Len(uint(outWords - 1)))
	defer statevec.PutScratch(t.out)
	t.key = rng.Uint64()
	return t.draw(shots), nil
}

// tree is one draw. sums and out are scratch off the free list's table
// side: sums[i] is node i's probability (the root is node 1, node i's
// children 2i and 2i+1, block b leaf leaves+b), and top subtree j, node
// tasks+j, appends its outcomes as (index, count) pairs to out from
// start[j] to end[j], at most twice the lesser of its shots and its
// outcomes. shots[i] is what node i receives, for i below 2·tasks.
type tree struct {
	probs      []float64
	sums       []float64
	leaves     int // blocks, rounded up to a power of two
	tasks      int
	shots      [2 * topTasks]int
	start, end [topTasks]int
	out        []float64
	next       atomic.Int64 // the next subtree a worker claims
	key        uint64       // the caller's RNG output every stream is keyed by
	workers    int          // the workers offered
}

// shape returns a draw's sum-tree leaves and output words (two an outcome).
func shape(outcomes, shots int) (leaves, outWords int) {
	return 1 << bits.Len(uint((outcomes-1)>>blockBits)), 2 * min(shots, outcomes)
}

// sum validates probs and fills the sums, the blocks' on the workers
// when there are many: a negative entry makes its block's sum NaN, so one
// check of the root finds every invalid entry.
func (t *tree) sum() error {
	if blocks := (len(t.probs)-1)>>blockBits + 1; blocks >= 1<<10 && t.workers > 1 {
		statevec.ParallelFor(blocks, t.workers, t.blockSums)
	} else {
		t.blockSums(0, blocks)
	}
	for i := t.leaves - 1; i >= 1; i-- {
		t.sums[i] = t.sums[2*i] + t.sums[2*i+1]
	}
	switch total := t.sums[1]; {
	case total == 0:
		return fmt.Errorf("sampling: zero total probability")
	case total <= math.MaxFloat64:
		return nil
	}
	for i, p := range t.probs {
		switch {
		case math.IsNaN(p) || math.IsInf(p, 0):
			return fmt.Errorf("sampling: non-finite probability at %d", i)
		case p < 0:
			return fmt.Errorf("sampling: negative probability at %d", i)
		}
	}
	return fmt.Errorf("sampling: total probability overflows")
}

// blockSums fills the sums of blocks lo to hi−1, NaN for a block with
// a negative entry: four partial sums, not one chain of dependent adds,
// and the entries' sign bits ORed, a block with one set (a −0 sets one
// too) looked at again.
func (t *tree) blockSums(lo, hi int) {
	for b := lo; b < hi; b++ {
		ps := t.probs[b<<blockBits : min((b+1)<<blockBits, len(t.probs))]
		var s0, s1, s2, s3 float64
		var sign uint64
		j := 0
		for ; j+4 <= len(ps); j += 4 {
			p := ps[j : j+4 : j+4]
			s0, s1, s2, s3 = s0+p[0], s1+p[1], s2+p[2], s3+p[3]
			sign |= math.Float64bits(p[0]) | math.Float64bits(p[1]) | math.Float64bits(p[2]) | math.Float64bits(p[3])
		}
		for ; j < len(ps); j++ {
			s0 += ps[j]
			sign |= math.Float64bits(ps[j])
		}
		if sign>>63 != 0 && slices.ContainsFunc(ps, func(p float64) bool { return p < 0 }) {
			s0 = math.NaN()
		}
		t.sums[t.leaves+b] = (s0 + s1) + (s2 + s3)
	}
}

// draw sends shots down the levels above the top subtrees on the
// caller, then the subtrees on up to one worker per 2^14 shots.
func (t *tree) draw(shots int) Counts {
	t.shots[1] = shots
	for node := 1; node < t.tasks; node++ {
		if k := t.shots[node]; k > 0 {
			x := t.split(node, k)
			t.shots[2*node], t.shots[2*node+1] = x, k-x
		}
	}
	span := t.leaves / t.tasks << blockBits // outcomes a subtree covers
	at := 0
	for j := 0; j < t.tasks; j++ {
		t.start[j], t.end[j] = at, at
		at += 2 * min(t.shots[t.tasks+j], max(0, min(span, len(t.probs)-j*span)))
	}
	if w := min(t.workers, shots>>14); w > 1 {
		statevec.ParallelFor(w, w, t.subtrees)
	} else {
		t.subtrees(0, 1)
	}
	distinct := 0
	for j := 0; j < t.tasks; j++ {
		distinct += (t.end[j] - t.start[j]) / 2
	}
	counts := make(Counts, distinct)
	for j := 0; j < t.tasks; j++ {
		pairs := t.out[t.start[j]:t.end[j]]
		for e := 0; e < len(pairs); e += 2 {
			counts[uint64(pairs[e])] = int(pairs[e+1])
		}
	}
	return counts
}

// subtrees draws top subtrees until none is left to claim.
func (t *tree) subtrees(int, int) {
	for j := int(t.next.Add(1)) - 1; j < t.tasks; j = int(t.next.Add(1)) - 1 {
		if k := t.shots[t.tasks+j]; k > 0 {
			from := t.start[j]
			t.end[j] = from + len(t.descend(t.tasks+j, k, t.out[from:from]))
		}
	}
}

// split draws how many of the k shots node receives go to its left
// child.
func (t *tree) split(node, k int) int {
	r := t.stream(node)
	return binomial(&r, k, t.sums[2*node]/t.sums[node])
}

// descend draws the k shots node receives down to its outcomes and
// appends them to out: one at a time when they are few, and otherwise
// split between its children, or, at a block, down the block's own
// tree.
func (t *tree) descend(node, k int, out []float64) []float64 {
	switch {
	case k <= walkShots:
		return t.walk(node, k, out)
	case node >= t.leaves:
		return t.block(node-t.leaves, k, out)
	}
	x := t.split(node, k)
	if x > 0 {
		out = t.descend(2*node, x, out)
	}
	if x < k {
		out = t.descend(2*node+1, k-x, out)
	}
	return out
}

// walk draws k ≤ walkShots shots from node one uniform draw each and
// appends the outcomes drawn, with their counts, to out. A draw walks
// down the sum tree, turning left when it is below the left sum or the
// right one is zero, so it never enters a zero subtree, rounding or not.
// In its block it lands on the first entry whose running sum exceeds
// it, never a zero entry, or, when the running sum (added in another
// order than the block's) does not reach it, on the last non-zero one.
// Sorted, the draws land in order and share the scans of their blocks.
func (t *tree) walk(node, k int, out []float64) []float64 {
	r := t.stream(node)
	var us [walkShots]float64
	for s := range us[:k] {
		us[s] = float64(r.unit() * t.sums[node])
	}
	slices.Sort(us[:k])
	var at [walkShots]int
	lo, j, acc, hit := -1, 0, 0.0, 0 // block lo's scan: acc sums the entries before j
	for s, u := range us[:k] {
		i := node
		for i < t.leaves {
			if i *= 2; u >= t.sums[i] && t.sums[i+1] > 0 {
				u -= t.sums[i]
				i++
			}
		}
		if b := (i - t.leaves) << blockBits; b != lo {
			lo, j, acc = b, 0, 0
		}
		for ps := t.probs[lo:min(lo+1<<blockBits, len(t.probs))]; !(u < acc) && j < len(ps); j++ {
			if ps[j] > 0 {
				hit = j
			}
			acc += ps[j]
		}
		at[s] = lo + hit
	}
	for s := 0; s < k; {
		run := s
		for s++; s < k && at[s] == at[run]; s++ {
		}
		out = append(out, float64(at[run]), float64(s-run))
	}
	return out
}

// block draws k > walkShots shots among block b's outcomes down six
// more tree levels, the block's own sum tree (nodes 1 to 63, entry j
// at 64+j) built here, splitting them by binomials as above it, and
// appends each outcome drawn, with its count, to out.
func (t *tree) block(b, k int, out []float64) []float64 {
	lo := b << blockBits
	ps := t.probs[lo:min(lo+1<<blockBits, len(t.probs))]
	var sums [2 << blockBits]float64
	copy(sums[1<<blockBits:], ps)
	for i := 1<<blockBits - 1; i >= 1; i-- {
		sums[i] = sums[2*i] + sums[2*i+1]
	}
	r := t.stream(t.leaves + b)
	var n [2 << blockBits]int // shots per node
	n[1] = k
	for i := 1; i < 1<<blockBits; i++ {
		if n[i] > 0 {
			n[2*i] = binomial(&r, n[i], sums[2*i]/sums[i])
			n[2*i+1] = n[i] - n[2*i]
		}
	}
	for j, c := range n[1<<blockBits : 1<<blockBits+len(ps)] {
		if c > 0 {
			out = append(out, float64(lo+j), float64(c))
		}
	}
	return out
}

// stream is a node's random stream: SplitMix64 (Steele, Lea & Flood,
// OOPSLA 2014) from the draw's key mixed with the node's index.
type stream uint64

func (t *tree) stream(node int) stream {
	return stream(mix(t.key ^ uint64(node)*0xd1b54a32d192ed03))
}

// unit returns the stream's next uniform float64 in [0, 1).
func (s *stream) unit() float64 {
	*s += 0x9e3779b97f4a7c15
	return qmath.UnitFloat(mix(uint64(*s)))
}

func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// binomial draws from Binomial(n, p) on r, for n ≥ 1 and p in [0, 1].
func binomial(r *stream, n int, p float64) int {
	switch {
	case p == 0:
		return 0
	case p == 1:
		return n
	case n == 1:
		if r.unit() < p {
			return 1
		}
		return 0
	case p > 0.5:
		return n - binomial(r, n, 1-p)
	case float64(n)*p <= 30:
		return inversion(r, n, p)
	}
	return btpe(r, n, p)
}

// inversion walks the mass function up from 0 until a uniform draw is
// spent (BINV), for p ≤ 1/2 and a mean of at most 30. A walk past ten
// standard deviations above the mean, where only rounding leaves the
// uniform unspent, starts over: the tail it cuts weighs under 1e-15.
func inversion(r *stream, n int, p float64) int {
	q := 1 - p
	s := p / q
	a := float64(float64(n+1) * s)
	mean := float64(float64(n) * p)
	stop := min(float64(n), mean+float64(10*math.Sqrt(float64(mean*q)+1)))
	f0 := pow(q, n)
	for {
		u, f := r.unit(), f0
		for x := 0; float64(x) <= stop; x++ {
			if u < f {
				return x
			}
			u -= f
			f = float64(f * (a/float64(x+1) - s))
		}
	}
}

// pow is x^n by squaring, each bit of n picking its factor by index,
// not by a branch the predictor misses half the time.
func pow(x float64, n int) float64 {
	y := 1.0
	for ; n > 0; n >>= 1 {
		y = float64(y * [2]float64{1, x}[n&1])
		x = float64(x * x)
	}
	return y
}

// btpe is BTPE for p ≤ 1/2 and a mean above 30: a triangle (accepted
// at once), two parallelograms and two exponential tails over the mass
// function, the rest tested against f(y)/f(m) by its recurrence near the
// mode and by a squeeze and Stirling's series far from it.
func btpe(r *stream, n int, p float64) int {
	nf, q := float64(n), 1-p
	npq := float64(float64(nf*p) * q)
	fm := float64(nf*p) + p
	m := math.Floor(fm)
	p1 := math.Floor(float64(2.195*math.Sqrt(npq))-float64(4.6*q)) + 0.5
	xm := m + 0.5
	xl, xr := xm-p1, xm+p1
	c := 0.134 + 20.5/(15.3+m)
	a := (fm - xl) / (fm - float64(xl*p))
	laml := float64(a * (1 + float64(a/2)))
	a = (xr - fm) / float64(xr*q)
	lamr := float64(a * (1 + float64(a/2)))
	p2 := float64(p1 * (1 + float64(2*c)))
	p3 := p2 + c/laml
	p4 := p3 + c/lamr
	s := p / q // f(i)/f(i−1) = a/i − s
	a = float64(s * (nf + 1))
	for {
		u := float64(r.unit() * p4)
		v := r.unit()
		var y float64
		switch {
		case u <= p1: // the triangle
			return int(math.Floor(xm - float64(p1*v) + u))
		case u <= p2: // the parallelograms
			x := xl + (u-p1)/c
			v = float64(v*c) + 1 - math.Abs(m-x+0.5)/p1
			if v > 1 {
				continue
			}
			y = math.Floor(x)
		case u <= p3: // the left tail
			y = math.Floor(xl + ln(v)/laml)
			if y < 0 || v == 0 {
				continue
			}
			v = float64(float64(v*(u-p2)) * laml)
		default: // the right tail
			y = math.Floor(xr - ln(v)/lamr)
			if y > nf || v == 0 {
				continue
			}
			v = float64(float64(v*(u-p3)) * lamr)
		}
		k := math.Abs(y - m)
		if k <= 20 || k >= float64(npq/2)-1 {
			f := 1.0
			for i := m + 1; i <= y; i++ {
				f = float64(f * (a/i - s))
			}
			for i := y + 1; i <= m; i++ {
				f /= a/i - s
			}
			if v <= f {
				return int(y)
			}
			continue
		}
		rho := float64((k / npq) * ((float64(k*(k/3+0.625))+1.0/6)/npq + 0.5))
		t, lv := -float64(k*k)/(2*npq), ln(v)
		if lv < t-rho {
			return int(y)
		}
		x1, f1, z, w := y+1, m+1, nf+1-m, nf-y+1
		if lv <= t+rho && lv <= float64(xm*ln(f1/x1))+float64((nf-m+0.5)*ln(z/w))+
			float64((y-m)*ln(float64(w*p)/float64(x1*q)))+
			stirling(f1)+stirling(z)+stirling(x1)+stirling(w) {
			return int(y)
		}
	}
}

// stirling is the correction term of Stirling's series for ln x!,
// 1/12x − 1/360x³ + 1/1260x⁵ − 1/1680x⁷ + 1/1188x⁹, over 166320. (The
// published BTPE has 13680 for 166320/12 = 13860.)
func stirling(x float64) float64 {
	x2 := float64(x * x)
	return (13860 - (462-(132-(99-140/x2)/x2)/x2)/x2) / x / 166320
}

// ln is the natural logarithm for x ≥ 0: FreeBSD's e_log.c reduction
// and minimax polynomial, which math.Log's Go body also uses, written
// out here so that neither math.Log's amd64 assembly body nor a fused
// multiply-add can change a draw.
func ln(x float64) float64 {
	const (
		ln2Hi, ln2Lo = 6.93147180369123816490e-01, 1.90821492927058770002e-10
		l1, l2, l3   = 6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01
		l4, l5       = 2.222219843214978396e-01, 1.818357216161805012e-01
		l6, l7       = 1.531383769920937332e-01, 1.479819860511658591e-01
	)
	if x == 0 {
		return math.Inf(-1)
	}
	f, e := math.Frexp(x) // x = f·2^e, f in [1/2, 1)
	if f < math.Sqrt2/2 {
		f, e = 2*f, e-1
	}
	f--
	k := float64(e)
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+t1+t2)) + float64(k*ln2Lo))) - f)
}

// PeakBytes bounds what SampleParallel allocates, working set and
// returned Counts together, on any workers: admission control's price
// of a job's shots. The working set is the draw's record and its two
// scratch arrays when the list has none to hand; after a GC cycle,
// handing an array back can cost the list a slot array and a sentinel
// (56 bytes), and waiting for the workers the runtime a sudog (96); a
// Counts entry is a map slot and its share of an at-worst half-empty
// table, 64 bytes.
func PeakBytes(outcomes, shots, workers int) int64 {
	if outcomes <= 0 || shots < 0 {
		return 0
	}
	leaves, outWords := shape(outcomes, shots)
	b := int64(8*2*leaves) + int64(unsafe.Sizeof(tree{})) + 256 + 56
	if workers > 1 {
		b += 96
	}
	if shots > 0 {
		b += 56 + 8<<uint(bits.Len(uint(outWords-1))) + 64*int64(min(outcomes, shots))
	}
	return b
}
