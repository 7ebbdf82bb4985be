// Package schedule implements Phase II of Tagwatch: choosing the group of
// Gen2 Select bitmasks that covers all target (mobile or pinned) tags at
// minimum inventory cost (§5).
//
// The problem is the weighted set-cover reduction of §5.2: every candidate
// bitmask S(m, p, l) — a substring of some target's EPC — covers the set
// of tags whose EPC matches m at bit offset p, and costs C(|covered|)
// under the inventory-cost model of §2.2 (each bitmask runs as its own
// AISpec, paying the start-up cost τ₀). The greedy algorithm of §5.3
// repeatedly picks the bitmask with the highest relative gain
// R(S) = |V_S ∧ V| / C(|V_S|).
//
// The index table stores the population as column bitmaps: one bitmap per
// EPC bit position, 64 tags to a word. Select grows each target's windows
// one bit at a time: the coverage of S(m, p, l) is the coverage of
// S(m, p, l−1) masked by column p+l−1 (or its complement where the
// target's bit is 0), so a candidate costs ⌈n/64⌉ word operations rather
// than n comparisons. Many windows cover the same tags, and only the first
// window with a given coverage — in the order targets as given, then l
// ascending, then p ascending — becomes a candidate row:
//
//   - a window whose coverage did not shrink from (p, l−1) repeats a
//     coverage already seen, and is skipped without a lookup;
//   - once the window at p covers only its own target, every longer window
//     at p would repeat it, so that pointer is finished;
//   - every other window is looked up by a hash of its coverage words and
//     compared exactly on a hash hit.
//
// The greedy then drops a row from its scan as soon as its gain reaches
// zero, since the uncovered set V only shrinks.
package schedule

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
)

// Bitmask is the paper's S(m, p, l): a mask compared against the EPC code
// at bit offset Pointer. (The Gen2 Select pointer additionally skips the
// StoredCRC+StoredPC header; SelectCmd adds that.)
type Bitmask struct {
	Mask    epc.EPC
	Pointer int
}

// Covers reports whether the bitmask covers the given EPC code.
func (b Bitmask) Covers(code epc.EPC) bool {
	return code.MatchBits(b.Pointer, b.Mask)
}

// SelectCmd converts the bitmask into the Gen2 Select command that
// implements it on the air protocol.
func (b Bitmask) SelectCmd() gen2.SelectCmd {
	return gen2.SelectCmd{
		Target:  gen2.TargetSL,
		Action:  gen2.ActionAssertNothing,
		MemBank: epc.BankEPC,
		Pointer: epc.EPCWordOffset + b.Pointer,
		Mask:    b.Mask,
	}
}

// String renders the paper's S(mask, pointer, length) notation.
func (b Bitmask) String() string {
	return fmt.Sprintf("S(%s, %d, %d)", b.Mask, b.Pointer, b.Mask.Bits())
}

// Config tunes candidate enumeration.
type Config struct {
	// Cost is the inventory-cost model used to price bitmasks.
	Cost aloha.CostModel
	// MaxLen caps candidate mask lengths; 0 means the full EPC length.
	// The full space is n'·L(L+1)/2 candidates (§5.2); trimming lengths
	// trades optimality for preprocessing time on very large populations.
	MaxLen int
	// PointerStride enumerates candidate pointers in steps (1 = every bit
	// offset, the paper's full space).
	PointerStride int
	// Rand resolves gain ties ("a draw can be resolved by random
	// selection", §5.3); nil picks the first maximum deterministically.
	Rand *rand.Rand
}

// DefaultConfig prices with the paper's measured cost model and searches
// the full candidate space.
func DefaultConfig() Config {
	return Config{Cost: aloha.PaperCostModel(), PointerStride: 1}
}

// bitmap is an indicator over the population, packed 64 tags per word.
type bitmap []uint64

func newBitmap(n int) bitmap { return make(bitmap, (n+63)/64) }

func (b bitmap) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitmap) get(i int) bool { return b[i/64]>>(i%64)&1 == 1 }

func (b bitmap) popcount() int {
	var c int
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// andCount returns |b ∧ o|.
func (b bitmap) andCount(o bitmap) int {
	var c int
	for i := range b {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}

// clear removes o's bits from b.
func (b bitmap) clear(o bitmap) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// hash mixes the bitmap's words into 64 bits for row deduplication.
func (b bitmap) hash() uint64 {
	h := uint64(len(b))
	for _, w := range b {
		h = bits.RotateLeft64(h^w, 29) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

// maxBits is the longest EPC the index table accepts.
const maxBits = 128

// IndexTable is the §5.3 pre-built table: the current population plus fast
// coverage evaluation. Build one per population snapshot; it answers any
// number of Select calls (target sets) against that snapshot.
type IndexTable struct {
	cfg  Config
	tags []epc.EPC // sorted by epc.Compare
	bits int       // common EPC bit length
	// cols holds one bitmap over the population per EPC bit position:
	// column c is cols[c*words : (c+1)*words], tag i's bit c at bit i%64
	// of word i/64.
	cols  []uint64
	words int
}

// NewIndexTable builds the table over the current tag population. All tags
// must share one EPC bit length (mixed populations are not meaningfully
// maskable with a common pointer space).
func NewIndexTable(cfg Config, population []epc.EPC) (*IndexTable, error) {
	if len(population) == 0 {
		return nil, fmt.Errorf("schedule: empty population")
	}
	if cfg.Cost == (aloha.CostModel{}) {
		cfg.Cost = aloha.PaperCostModel()
	}
	if cfg.PointerStride <= 0 {
		cfg.PointerStride = 1
	}
	tags := slices.Clone(population)
	slices.SortFunc(tags, epc.Compare)
	t := &IndexTable{
		cfg:   cfg,
		tags:  tags,
		bits:  tags[0].Bits(),
		words: (len(tags) + 63) / 64,
	}
	if t.bits > maxBits {
		return nil, fmt.Errorf("schedule: EPC %s exceeds %d bits", tags[0], maxBits)
	}
	// Each block of 64 tags is a 64×64 bit matrix per 64 EPC bits, one
	// row per tag; transposing it yields that block's word of 64 columns.
	t.cols = make([]uint64, t.bits*t.words)
	var block [2][64]uint64
	var buf []byte
	for w := 0; w < t.words; w++ {
		block = [2][64]uint64{}
		for j, code := range tags[64*w : min(64*w+64, len(tags))] {
			i := 64*w + j
			if code.Bits() != t.bits {
				return nil, fmt.Errorf("schedule: mixed EPC lengths %d and %d", t.bits, code.Bits())
			}
			if i > 0 && code == tags[i-1] {
				return nil, fmt.Errorf("schedule: duplicate EPC %s", code)
			}
			// Row 63-j, so that the transpose puts tag j at bit j.
			buf = code.AppendBytes(buf[:0])
			for k, b := range buf {
				block[k/8][63-j] |= uint64(b) << (56 - 8*(k%8))
			}
		}
		for half := 0; 64*half < t.bits; half++ {
			transpose64(&block[half])
			for c := 64 * half; c < min(64*half+64, t.bits); c++ {
				t.cols[c*t.words+w] = block[half][c-64*half]
			}
		}
	}
	return t, nil
}

// transpose64 transposes a 64×64 bit matrix in place, rows as words with
// column 0 at the most significant bit (Hacker's Delight, §7–3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; j, m = j>>1, m^m<<(j>>1) {
		for k := 0; k < 64; k = (k | j + 1) &^ j {
			x := (a[k] ^ a[k|j]>>j) & m
			a[k] ^= x
			a[k|j] ^= x << j
		}
	}
}

// Size returns the population size.
func (t *IndexTable) Size() int { return len(t.tags) }

// Population returns the population snapshot, sorted by epc.Compare.
func (t *IndexTable) Population() []epc.EPC { return t.tags }

// column returns the bitmap of tags whose EPC bit c is set.
func (t *IndexTable) column(c int) bitmap { return t.cols[c*t.words : (c+1)*t.words] }

// row is one candidate bitmask: the window [pointer, pointer+length) of
// the EPC of population member target. Its coverage is kept in the
// owning rows arena. The int32 fields shrink a row from 48 to 32 bytes;
// at hundreds of tags a Select makes thousands of rows.
type row struct {
	target, pointer, length int32
	count                   int32 // |coverage|
	next                    int32 // the previous row with the same coverage hash, or -1
	cost                    time.Duration
}

// rows is one Select call's candidate set. It lives only for the call:
// at hundreds of tags the arena runs to megabytes.
type rows struct {
	words  int
	arena  []uint64 // row r's coverage is arena[r*words : (r+1)*words]
	list   []row
	byHash map[uint64]int32 // coverage hash → the newest row with that hash
}

func (rs *rows) coverage(r int) bitmap { return rs.arena[r*rs.words : (r+1)*rs.words] }

// add records the window as a row unless a row with the same coverage
// exists.
func (rs *rows) add(cov bitmap, r row) {
	h := cov.hash()
	head, ok := rs.byHash[h]
	if !ok {
		head = -1
	}
	for o := head; o >= 0; o = rs.list[o].next {
		if slices.Equal(cov, rs.coverage(int(o))) {
			return
		}
	}
	r.next = head
	rs.byHash[h] = int32(len(rs.list))
	rs.list = append(rs.list, r)
	rs.arena = append(rs.arena, cov...)
}

// buildRows enumerates the candidate bitmasks derived from the targets:
// every substring S(m, p, l) of a target EPC, deduplicated by coverage,
// and prices each.
func (t *IndexTable) buildRows(targets []int) *rows {
	maxLen := t.cfg.MaxLen
	if maxLen <= 0 || maxLen > t.bits {
		maxLen = t.bits
	}
	stride := t.cfg.PointerStride
	pointers := (t.bits + stride - 1) / stride
	rs := &rows{words: t.words, byHash: make(map[uint64]int32)}
	// cov holds the coverage of the current window at each pointer.
	cov := make([]uint64, pointers*t.words)
	all := newBitmap(len(t.tags))
	for i := range t.tags {
		all.set(i)
	}
	active := make([]int, 0, pointers) // pointer indexes not yet finished
	for _, ti := range targets {
		active = active[:0]
		for k := 0; k < pointers; k++ {
			copy(cov[k*t.words:], all)
			active = append(active, k)
		}
		tw, tb := ti/64, uint(ti%64)
		for l := 1; l <= maxLen && len(active) > 0; l++ {
			kept := active[:0]
			for _, k := range active {
				p := k * stride
				if p+l > t.bits {
					break // so do all later pointers, at this and every longer l
				}
				c := bitmap(cov[k*t.words : (k+1)*t.words])
				col := t.column(p + l - 1)
				flip := col[tw]>>tb&1 - 1 // all ones where the target's bit is 0
				shrunk := false
				count := 0
				for w := range c {
					x := c[w] & (col[w] ^ flip)
					if x != c[w] {
						c[w] = x
						shrunk = true
					}
					count += bits.OnesCount64(x)
				}
				if count > 1 {
					kept = append(kept, k)
				}
				if l > 1 && !shrunk {
					continue // the same coverage as (p, l-1)
				}
				rs.add(c, row{target: int32(ti), pointer: int32(p), length: int32(l), count: int32(count)})
			}
			active = kept
		}
	}
	price := make([]time.Duration, len(t.tags)+1) // C(count), computed on first use
	for i := range rs.list {
		r := &rs.list[i]
		if price[r.count] == 0 {
			price[r.count] = t.cfg.Cost.Cost(int(r.count))
		}
		r.cost = price[r.count]
	}
	return rs
}

// PlanMask is one selected bitmask with its coverage accounting.
type PlanMask struct {
	Bitmask Bitmask
	// Covered is how many tags (targets and collateral) the mask's
	// selective round will read.
	Covered int
	// TargetGain is how many then-uncovered targets the mask contributed.
	TargetGain int
	// Cost is C(Covered).
	Cost time.Duration
}

// Plan is the outcome of bitmask selection.
type Plan struct {
	Masks []PlanMask
	// TotalCost is Σ C(|S_i|) over the chosen masks.
	TotalCost time.Duration
	// NaiveCost is the §5.2 worst case: one exact-EPC round per target.
	NaiveCost time.Duration
	// UsedNaive reports that the greedy result was more expensive than the
	// worst case and the naive plan was adopted instead.
	UsedNaive bool
	// Collateral is the number of distinct non-target tags covered.
	Collateral int
}

// Bitmasks returns just the masks, in selection order.
func (p Plan) Bitmasks() []Bitmask {
	out := make([]Bitmask, len(p.Masks))
	for i, m := range p.Masks {
		out[i] = m.Bitmask
	}
	return out
}

// ErrUnknownTarget is wrapped when a target is not in the population.
var ErrUnknownTarget = fmt.Errorf("schedule: target not in population")

// Select runs the greedy set-cover search of §5.3 for the given targets
// and returns the chosen plan. Targets must be members of the population.
func (t *IndexTable) Select(targets []epc.EPC) (Plan, error) {
	if len(targets) == 0 {
		return Plan{}, fmt.Errorf("schedule: no targets")
	}
	idxs := make([]int, 0, len(targets))
	targetSet := newBitmap(len(t.tags))
	for _, code := range targets {
		i, ok := slices.BinarySearchFunc(t.tags, code, epc.Compare)
		if !ok {
			return Plan{}, fmt.Errorf("%w: %s", ErrUnknownTarget, code)
		}
		if targetSet.get(i) {
			continue
		}
		targetSet.set(i)
		idxs = append(idxs, i)
	}

	rs := t.buildRows(idxs)
	// live lists the rows that still cover an uncovered target, in
	// enumeration order; a row whose gain reaches 0 never regains any.
	live := make([]int, len(rs.list))
	for r := range live {
		live[r] = r
	}

	// Greedy iterations over the input indicator V.
	v := slices.Clone(targetSet)
	var plan Plan
	coveredAll := newBitmap(len(t.tags))
	var best []int
	for uncovered := len(idxs); uncovered > 0; {
		bestR := -1.0
		best = best[:0]
		kept := live[:0]
		for _, r := range live {
			gain := rs.coverage(r).andCount(v)
			if gain == 0 {
				continue
			}
			kept = append(kept, r)
			ratio := float64(gain) / float64(rs.list[r].cost)
			switch {
			case ratio > bestR:
				bestR = ratio
				best = append(best[:0], r)
			case ratio == bestR:
				best = append(best, r)
			}
		}
		live = kept
		if len(best) == 0 {
			return Plan{}, fmt.Errorf("schedule: uncoverable targets remain (internal invariant violated)")
		}
		pick := best[0]
		if t.cfg.Rand != nil && len(best) > 1 {
			pick = best[t.cfg.Rand.Intn(len(best))]
		}
		r, cov := rs.list[pick], rs.coverage(pick)
		mask, err := t.tags[r.target].Slice(int(r.pointer), int(r.length))
		if err != nil {
			return Plan{}, fmt.Errorf("schedule: %w", err)
		}
		gain := cov.andCount(v)
		plan.Masks = append(plan.Masks, PlanMask{
			Bitmask:    Bitmask{Mask: mask, Pointer: int(r.pointer)},
			Covered:    int(r.count),
			TargetGain: gain,
			Cost:       r.cost,
		})
		plan.TotalCost += r.cost
		for i := range coveredAll {
			coveredAll[i] |= cov[i]
		}
		v.clear(cov)
		uncovered -= gain
	}
	plan.Collateral = coveredAll.popcount() - coveredAll.andCount(targetSet)

	// Worst-case fallback (§5.2): n' exact-EPC rounds.
	plan.NaiveCost = time.Duration(len(idxs)) * t.cfg.Cost.Cost(1)
	if plan.TotalCost > plan.NaiveCost {
		naive := t.NaivePlan(targets)
		naive.NaiveCost = plan.NaiveCost
		naive.UsedNaive = true
		return naive, nil
	}
	return plan, nil
}

// NaivePlan builds the baseline plan that uses each target's full EPC as
// its own bitmask — the "naive rate-adaptive solution" compared throughout
// §7.
func (t *IndexTable) NaivePlan(targets []epc.EPC) Plan {
	var plan Plan
	seen := make(map[epc.EPC]struct{}, len(targets))
	for _, code := range targets {
		if _, dup := seen[code]; dup {
			continue
		}
		seen[code] = struct{}{}
		cost := t.cfg.Cost.Cost(1)
		plan.Masks = append(plan.Masks, PlanMask{
			Bitmask:    Bitmask{Mask: code, Pointer: 0},
			Covered:    1,
			TargetGain: 1,
			Cost:       cost,
		})
		plan.TotalCost += cost
	}
	plan.NaiveCost = plan.TotalCost
	return plan
}
