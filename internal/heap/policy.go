package heap

import "repro/internal/seg"

// This file is the policy seam of the collector: which generation an
// automatic collection collects and how many generation-0 words are
// allocated between collect requests go through one Policy value set
// via Config.Policy. Where survivors go is not a policy choice: a
// collection of 0..g copies them into g+1, and the oldest dynamic
// generation collects into itself (collectBegin). Two stock
// implementations cover the space: RadixPolicy (the paper's fixed
// strategy, configurable, and what a nil Config.Policy resolves to) and
// AdaptivePolicy (feedback-driven from CollectionReport survival rates,
// modeled on CertiCoq's empirically sized nursery and the VGC
// survival-driven zone policy). StaticTop wraps either to hold the
// oldest generation out of automatic collection altogether.

// Policy decides, for one heap, when each generation is collected and
// how large the generation-0 allocation budget is. A Policy is
// consulted only by its heap's one mutator at a time, so
// implementations need no internal locking; stateful implementations
// should also implement PolicyCloner so every heap built from the same
// Config gets fresh state.
//
// All methods must be allocation-free in steady state: NextTrigger is
// called inside every collection and a policy that allocates there
// would break the collector's allocation-free steady state
// (TestCollectSteadyStateAllocs).
type Policy interface {
	// Name returns a short stable identifier ("radix", "adaptive")
	// used by traces, reports, and the (gc-policy) prim.
	Name() string

	// CollectGen chooses the generation the n'th automatic collection
	// (1-based; n is the heap's cumulative collect-request count)
	// should collect. Generations 0..CollectGen are collected. The
	// heap clamps the result to [0, maxGen].
	CollectGen(n uint64, maxGen int) int

	// InitialTrigger returns the generation-0 trigger in words — how
	// many words are allocated in generation 0 before a collect
	// request is raised — used from heap construction until the first
	// collection. Must be positive.
	InitialTrigger() int

	// NextTrigger returns the generation-0 trigger to use after the
	// collection described by rep; cur is the trigger that was in
	// effect. Static policies return cur. The heap clamps the result
	// to at least MinTriggerWords. rep is the heap-owned report — read
	// it, don't retain it.
	NextTrigger(rep *CollectionReport, cur int) int
}

// PolicyCloner is implemented by stateful policies. New (and therefore
// CloneFromTemplate) calls ClonePolicy when resolving Config.Policy,
// so a Config can be reused across many heaps without the policies
// sharing mutable state. Value-type policies (RadixPolicy) don't need
// it.
type PolicyCloner interface {
	ClonePolicy() Policy
}

// MinTriggerWords is the floor the heap applies to every trigger a
// policy returns: one segment. Below that the trigger would fire on
// effectively every allocation slow path.
const MinTriggerWords = seg.Words

// DefaultTriggerWords is the fixed generation-0 trigger of the stock
// static policy: 64 segments (256 KB), the upper end of the L2-cache
// sizing CertiCoq found fastest.
const DefaultTriggerWords = 64 * seg.Words

// DefaultRadix is the stock collection cadence: generation g is
// collected every 4^g collect requests, matching Chez Scheme's
// collect-generation-radix default.
const DefaultRadix = 4

// radixCollectGen is RadixPolicy's cadence: generation g is collected
// on every radix^g'th automatic collection, so older generations are
// collected exponentially less often (§4).
func radixCollectGen(n uint64, radix, maxGen int) int {
	g := 0
	for g < maxGen && n%uint64(radix) == 0 {
		g++
		n /= uint64(radix)
	}
	return g
}

// RadixPolicy is the configurable static strategy: a fixed trigger and
// a fixed radix cadence. Zero fields select the stock defaults, so
// RadixPolicy{} is the paper's fixed strategy: generation g is
// collected every DefaultRadix^g collect requests, and the
// generation-0 trigger is DefaultTriggerWords, never adjusted. It is
// also the policy heap images round-trip (LoadImage), bare or under
// StaticTop.
type RadixPolicy struct {
	// Trigger is the generation-0 trigger in words; 0 selects
	// DefaultTriggerWords.
	Trigger int
	// Radix is the collection cadence: generation g is collected every
	// Radix^g collect requests; 0 selects DefaultRadix. Must be >= 2
	// when set.
	Radix int
}

func (p RadixPolicy) Name() string { return "radix" }

func (p RadixPolicy) CollectGen(n uint64, maxGen int) int {
	r := p.Radix
	if r == 0 {
		r = DefaultRadix
	}
	return radixCollectGen(n, r, maxGen)
}

func (p RadixPolicy) InitialTrigger() int {
	if p.Trigger == 0 {
		return DefaultTriggerWords
	}
	return p.Trigger
}

func (p RadixPolicy) NextTrigger(rep *CollectionReport, cur int) int { return cur }

// StaticTop wraps p so that the oldest generation is static, in the
// manner of the generation the paper's host keeps its boot heap in:
// automatic collections never collect it and survivors are never
// promoted into it (Heap.OldestDynamic). Below it p runs the remaining
// generations exactly as it would run a heap with one generation fewer
// — same cadence, the oldest dynamic generation collecting into
// itself. Only an explicit Collect(MaxGeneration()) reaches the static
// generation, and it tenures every survivor there: that is how a
// template donor fills it (scheme.CaptureTemplate), after which its
// clones share it untouched and copy-on-write never has a collection to
// fault on. A one-generation heap has nothing to hold static and runs p
// unchanged.
func StaticTop(p Policy) Policy { return staticTop{p} }

type staticTop struct{ Policy }

func (s staticTop) Name() string { return "static-top+" + s.Policy.Name() }

func (s staticTop) CollectGen(n uint64, maxGen int) int {
	return s.Policy.CollectGen(n, max(maxGen-1, 0))
}

// ClonePolicy gives each heap its own copy of a stateful inner policy.
func (s staticTop) ClonePolicy() Policy {
	if c, ok := s.Policy.(PolicyCloner); ok {
		return staticTop{c.ClonePolicy()}
	}
	return s
}

// Defaults of AdaptivePolicy's exported knobs.
const (
	// AdaptiveMinTrigger / AdaptiveMaxTrigger bound the tuned nursery:
	// 16 segments (64 KB, the low end of CertiCoq's L2 sizing) to 2048
	// segments (8 MB).
	AdaptiveMinTrigger = 16 * seg.Words
	AdaptiveMaxTrigger = 2048 * seg.Words
	// AdaptiveLowSurvival / AdaptiveHighSurvival are the deadband on
	// the smoothed generation-0 survival rate: below the low mark the
	// nursery is oversized (survivors are scarce — halve it toward the
	// cache-friendly end), above the high mark objects are dying too
	// slowly for the nursery to pay off (double it so they get more
	// time to die before the next scavenge).
	AdaptiveLowSurvival  = 0.05
	AdaptiveHighSurvival = 0.20
)

// AdaptivePolicy is the feedback-driven strategy: it adjusts the
// generation-0 trigger and the per-generation collection cadence from
// the survival rates measured by each CollectionReport, clamped to safe
// bounds.
//
// Trigger: after every generation-0 collection the policy folds the
// collection's survival rate (WordsCopied / Gen0Words) into an
// exponential moving average. While the average sits above
// HighSurvival the nursery doubles (objects need more time to die);
// below LowSurvival it halves (survivors are scarce and a smaller
// nursery is cache-friendlier); in between it is left alone. The
// result is clamped to [MinTrigger, MaxTrigger].
//
// Cadence: instead of a blind radix clock, an older generation is
// collected once the words promoted into it since it was last
// collected exceed its budget — Trigger << g for generation g, so each
// older generation must accumulate exponentially more garbage
// candidates before it is worth a pass, preserving the
// generation-friendly shape of the radix policy while keying it to
// measured promotion rather than a request counter.
//
// The zero value selects every default; fields may be set before the
// policy is handed to Config.Policy. AdaptivePolicy is stateful and
// implements PolicyCloner: each heap resolved from a Config gets its
// own copy, so clones from one template tune independently.
type AdaptivePolicy struct {
	// MinTrigger and MaxTrigger clamp the tuned trigger (words); zero
	// selects AdaptiveMinTrigger / AdaptiveMaxTrigger.
	MinTrigger int
	MaxTrigger int
	// LowSurvival and HighSurvival are the EMA deadband; zero selects
	// AdaptiveLowSurvival / AdaptiveHighSurvival.
	LowSurvival  float64
	HighSurvival float64
	// Initial is the starting trigger (words); zero selects
	// DefaultTriggerWords.
	Initial int

	// Smoothed generation-0 survival rate.
	ema     float64
	emaInit bool
	// lastTrigger is the trigger most recently in effect, feeding the
	// per-generation budgets so the cadence scales with the nursery.
	lastTrigger int
	// promoted[g] is the number of words promoted into generation g
	// since g was last collected; grown (once per generation) on
	// first use, so steady-state collections do not allocate.
	promoted []uint64
}

// NewAdaptivePolicy returns an AdaptivePolicy with every default.
func NewAdaptivePolicy() *AdaptivePolicy { return &AdaptivePolicy{} }

// ClonePolicy gives each heap its own tuning state while sharing the
// configured bounds.
func (p *AdaptivePolicy) ClonePolicy() Policy {
	c := &AdaptivePolicy{}
	if p != nil {
		c.MinTrigger, c.MaxTrigger = p.MinTrigger, p.MaxTrigger
		c.LowSurvival, c.HighSurvival = p.LowSurvival, p.HighSurvival
		c.Initial = p.Initial
	}
	return c
}

func (p *AdaptivePolicy) Name() string { return "adaptive" }

func (p *AdaptivePolicy) minTrigger() int {
	if p.MinTrigger == 0 {
		return AdaptiveMinTrigger
	}
	return p.MinTrigger
}

func (p *AdaptivePolicy) maxTrigger() int {
	if p.MaxTrigger == 0 {
		return AdaptiveMaxTrigger
	}
	return p.MaxTrigger
}

func (p *AdaptivePolicy) InitialTrigger() int {
	t := p.Initial
	if t == 0 {
		t = DefaultTriggerWords
	}
	return p.clamp(t)
}

func (p *AdaptivePolicy) clamp(t int) int {
	if lo := p.minTrigger(); t < lo {
		return lo
	}
	if hi := p.maxTrigger(); t > hi {
		return hi
	}
	return t
}

// CollectGen collects up to the oldest generation whose promoted-word
// backlog exceeds its budget. The request counter n is unused: the
// cadence is driven by measured promotion, accumulated by NextTrigger.
func (p *AdaptivePolicy) CollectGen(n uint64, maxGen int) int {
	g := 0
	for i := 1; i <= maxGen && i < len(p.promoted); i++ {
		if p.promoted[i] >= p.budget(i) {
			g = i
		}
	}
	return g
}

// budget is the promoted-word threshold for collecting generation g:
// the current nursery budget doubled per generation of age. It uses
// the policy's last-returned trigger so the cadence scales with the
// tuned nursery.
func (p *AdaptivePolicy) budget(g int) uint64 {
	t := p.lastTrigger
	if t == 0 {
		t = p.InitialTrigger()
	}
	b := uint64(t) << uint(g)
	return b
}

// NextTrigger folds the collection's survival figures into the policy
// state: the promotion ledger feeding CollectGen, and — for
// generation-0 collections — the survival EMA that resizes the
// nursery.
func (p *AdaptivePolicy) NextTrigger(rep *CollectionReport, cur int) int {
	p.lastTrigger = cur
	// Promotion ledger: generations 0..Gen were emptied, and their
	// survivors landed in Target.
	if rep.Target >= len(p.promoted) {
		np := make([]uint64, rep.Target+1)
		copy(np, p.promoted)
		p.promoted = np
	}
	for g := 0; g <= rep.Gen && g < len(p.promoted); g++ {
		p.promoted[g] = 0
	}
	if rep.Target > rep.Gen {
		p.promoted[rep.Target] += rep.WordsCopied
	}
	if rep.Gen != 0 || rep.Gen0Words == 0 {
		// Only generation-0 collections measure nursery survival
		// cleanly: an older collection's WordsCopied mixes in old-space
		// survivors.
		return p.clamp(cur)
	}
	s := float64(rep.WordsCopied) / float64(rep.Gen0Words)
	if s > 1 {
		s = 1
	}
	if !p.emaInit {
		p.ema, p.emaInit = s, true
	} else {
		p.ema = 0.5*p.ema + 0.5*s
	}
	lo, hi := p.LowSurvival, p.HighSurvival
	if lo == 0 {
		lo = AdaptiveLowSurvival
	}
	if hi == 0 {
		hi = AdaptiveHighSurvival
	}
	next := cur
	switch {
	case p.ema > hi:
		next = cur * 2
	case p.ema < lo:
		next = cur / 2
	}
	next = p.clamp(next)
	p.lastTrigger = next
	return next
}

// Survival returns the policy's current smoothed generation-0 survival
// rate (0 until the first generation-0 collection).
func (p *AdaptivePolicy) Survival() float64 { return p.ema }
