// Package scheme implements a small Scheme whose every value —
// environments, closures, compiled code — lives in the simulated heap
// of package heap. Running Scheme code therefore drives the paper's
// collector with realistic workloads, and the code figures of the
// paper (make-guardian, make-transport-guardian,
// make-guarded-hash-table, guarded-open-*) run verbatim: they are the
// machine's prelude.
//
// Programs are compiled to bytecode (compile.go) and run on a stack VM
// (vm.go) with proper tail calls. Collections happen only at the VM's
// safe points; every heap value the machine holds across a potential
// safe point is on its value stack or in its frames, which the
// collector treats as roots, so objects may move freely between any
// two steps.
package scheme

import (
	"fmt"
	"io"
	"os"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/ports"
)

// formID enumerates special forms.
type formID int

const (
	fQuote formID = iota
	fIf
	fDefine
	fSet
	fLambda
	fCaseLambda
	fBegin
	fLet
	fLetStar
	fLetrec
	fLetrecStar
	fCond
	fCase
	fAnd
	fOr
	fWhen
	fUnless
	fDo
	fQuasiquote
	numForms
)

// Indexes of the other fixed symbols in Machine.keywords, after the
// special forms: else and =>, then the record-type tags of compiled
// closures and escape continuations.
const (
	kwElse = int(numForms) + iota
	kwArrow
	kwCompiledClosure
	kwContinuation
	numKeywords
)

// keywordNames names the symbol behind each index of Machine.keywords.
var keywordNames = [numKeywords]string{
	fQuote: "quote", fIf: "if", fDefine: "define", fSet: "set!",
	fLambda: "lambda", fCaseLambda: "case-lambda", fBegin: "begin",
	fLet: "let", fLetStar: "let*", fLetrec: "letrec",
	fLetrecStar: "letrec*", fCond: "cond", fCase: "case",
	fAnd: "and", fOr: "or", fWhen: "when", fUnless: "unless",
	fDo: "do", fQuasiquote: "quasiquote",
	kwElse: "else", kwArrow: "=>",
	kwCompiledClosure: "%compiled-closure", kwContinuation: "%continuation",
}

// maxEvalDepth bounds nested runs of the VM through Go (a primitive
// such as apply or call/cc calling back into compiled code), so that
// runaway recursion through them is an error, not a Go stack overflow.
const maxEvalDepth = 10000

// ExitError is returned when a program calls (exit [code]): the
// embedder (e.g. the REPL) decides what process-level exit means. It
// propagates as an ordinary error, so any dynamic-wind after thunks
// run on the way out — which is exactly what the paper's guarded-exit
// relies on for close-dropped-ports.
type ExitError struct{ Code int }

func (e *ExitError) Error() string { return fmt.Sprintf("scheme: exit %d", e.Code) }

// Machine is a Scheme instance bound to a heap.
type Machine struct {
	H   *heap.Heap
	PM  *ports.Manager
	Out io.Writer

	// The symbol table (symtab.go): base is the frozen prefix shared
	// with every machine attached to the same template, and baseSyms
	// its symbol values — base.syms itself while shared is set, the
	// machine's private copy once it has flattened. The overlay holds
	// symbol indexes from len(baseSyms) on: symIdx maps its names to
	// indexes, syms[i] and symNames[i] are slot len(baseSyms)+i
	// (obj.False and "" once pruned), symsFree lists pruned slots.
	base      *symBase
	baseSyms  []obj.Value
	shared    bool      // baseSyms, permValues and permPlists alias base
	visitCell obj.Value // visitShared's copy of the base slot being visited
	symIdx    map[string]int
	syms      []obj.Value
	symNames  []string
	symsFree  []int

	stack     []obj.Value
	hostPrims []prim // DefinePrim's primitives, indexed from len(builtins)
	// keywords holds the symbol of each special form (by formID), then
	// else and =>, then the compiled-closure and continuation record
	// tags: the compiler and the VM compare against them. Interned at
	// machine build, so a template's clones find them in its shared
	// base. Visited as roots, so they track their symbols.
	keywords [numKeywords]obj.Value
	gensymN  int
	depth    int

	// Symbol pruning (Friedman & Wise [6], as deployed in Chez Scheme
	// per §2): when enabled, interned symbols with no global value, no
	// property list, and no heap references are removed from the
	// symbol table at each collection instead of living forever.
	pruneSymbols  bool
	permanentSyms int
	// permValues/permPlists snapshot the global value and property
	// list of each permanent symbol at machine initialization. User
	// code can bind or set! a permanent symbol (the prelude interns
	// short names like "p" as lambda parameters, so a user-level
	// (define p ...) lands on a permanent slot); DropUserState
	// restores these snapshots so such bindings do not outlive the
	// hosted program. The snapshots are visited as strong roots. An
	// attached machine reads its template's snapshots (base.values,
	// base.plists) until it flattens.
	permValues []obj.Value
	permPlists []obj.Value
	// permVersion counts changes to the permanent-symbol snapshot
	// (DefinePrim promotions and rebindings). A MachineTemplate records
	// the donor's version at capture; a mismatch later means the donor
	// grew new permanent state and the template is stale (see
	// template.go).
	permVersion uint64

	// Escape continuations (see callcc.go).
	nextContID  int64
	activeConts map[int64]bool

	// Bytecode engine (see compile.go and vm.go).
	vmFrames []vmFrame
	cs       *compileScratch // while compiling (compile.go)

	// fuel bounds execution steps when non-negative; -1 = unlimited.
	fuel int64
}

type prim struct {
	name string
	min  int
	max  int // -1 = variadic
	fn   func(m *Machine, a Args) (obj.Value, error)
}

// Args gives primitives access to their evaluated arguments. Arguments
// live on the machine's shadow stack, so they remain valid (and are
// updated in place) across collections triggered inside the primitive.
type Args struct {
	m    *Machine
	base int
	n    int
}

// Len returns the argument count.
func (a Args) Len() int { return a.n }

// Get returns argument i.
func (a Args) Get(i int) obj.Value { return a.m.stack[a.base+i] }

// New creates a machine over h, with ports backed by pm (a fresh
// manager over an empty simulated file system if nil). The prelude —
// including the paper's make-guardian, make-transport-guardian, and
// make-guarded-hash-table — is compiled and run before New returns.
func New(h *heap.Heap, pm *ports.Manager) *Machine {
	return boot(h, pm, (*Machine).EvalString)
}

// boot builds a machine with an empty symbol table over h and pm (a
// fresh manager over an empty simulated file system if nil), registers
// it as a root provider of h, and runs the prelude with eval.
func boot(h *heap.Heap, pm *ports.Manager, eval func(*Machine, string) (obj.Value, error)) *Machine {
	if pm == nil {
		pm = ports.NewManager(h, ports.NewFS())
	}
	m := &Machine{H: h, PM: pm, Out: os.Stdout, base: emptyBase, symIdx: make(map[string]int), fuel: -1}
	h.AddRootProvider(m)
	m.internForms()
	m.installPrims()
	if _, err := eval(m, prelude); err != nil {
		panic(fmt.Sprintf("scheme: prelude failed: %v", err))
	}
	// Symbols interned up to this point (special forms, primitives,
	// everything the prelude mentions) are permanent; symbols interned
	// later are candidates for pruning.
	m.permanentSyms = len(m.syms)
	m.snapshotPermanents()
	h.AddPostCollectHook(m.pruneDeadSymbols)
	return m
}

// internForms interns the special-form keywords, else, => and the
// record tags, and records their symbols.
func (m *Machine) internForms() {
	for i, name := range keywordNames {
		m.keywords[i] = m.Intern(name)
	}
}

// snapshotPermanents records the global value and property list of
// permanent symbol slots not yet snapshotted, up to the current
// watermark, so DropUserState can restore them. Called from New for
// the whole initial table and from DefinePrim when it promotes a slot.
func (m *Machine) snapshotPermanents() {
	for i := len(m.permValues); i < m.permanentSyms; i++ {
		value, plist := obj.Unbound, obj.Nil
		if v := m.symbol(i); v != obj.False {
			if val, pl, ok := m.H.PeekSymbol(v); ok {
				value, plist = val, pl
			}
		}
		m.permValues = append(m.permValues, value)
		m.permPlists = append(m.permPlists, plist)
	}
}

// EnableSymbolPruning turns the symbol table weak: interned symbols
// that carry no global binding, no property list, and are unreferenced
// from the heap are uninterned at each collection. Symbols interned
// before the machine finished initializing are never pruned.
func (m *Machine) EnableSymbolPruning(on bool) { m.pruneSymbols = on }

// InternedSymbols returns the number of currently interned symbols.
func (m *Machine) InternedSymbols() int { return len(m.base.idx) + len(m.symIdx) }

// pruneDeadSymbols is the post-collect hook implementing the weak
// symbol table: prunable symbols are not visited as roots, so a
// symbol survives only if something else in the heap kept it alive.
// Permanent symbols, the base among them, are never pruned.
func (m *Machine) pruneDeadSymbols(h *heap.Heap, _ *heap.CollectionReport) {
	if !m.pruneSymbols {
		return
	}
	nb := len(m.baseSyms)
	for i := m.permanentSyms - nb; i < len(m.syms); i++ {
		v := m.syms[i]
		if v == obj.False {
			continue // already freed slot
		}
		if nv, ok := h.Survived(v); ok {
			m.syms[i] = nv
			continue
		}
		delete(m.symIdx, m.symNames[i])
		m.syms[i] = obj.False
		m.symNames[i] = ""
		m.symsFree = append(m.symsFree, nb+i)
	}
}

// VisitRoots implements heap.RootVisitor: interned symbols, the
// shadow stack and the VM frames' code objects and environments.
// Compiled code has no root of its own: it is heap data, reachable
// from the closures over it and the frames running it. With symbol
// pruning enabled, a non-permanent symbol without a global value or
// property list is deliberately *not* visited; if nothing else in the
// heap references it, the post-collect hook uninterns it. Base symbols
// and the permanent-symbol snapshots go through visitShared, which
// never stores into a template's base.
func (m *Machine) VisitRoots(visit func(*obj.Value)) {
	m.visitShared(&m.baseSyms, visit)
	nb := len(m.baseSyms)
	for i := range m.syms {
		v := m.syms[i]
		if v == obj.False {
			continue // freed slot
		}
		if m.pruneSymbols && nb+i >= m.permanentSyms {
			if val, plist, ok := m.H.PeekSymbol(v); ok &&
				val == obj.Unbound && plist == obj.Nil {
				continue // weak: survives only via other references
			}
		}
		visit(&m.syms[i])
	}
	m.visitShared(&m.permValues, visit)
	m.visitShared(&m.permPlists, visit)
	for i := range m.keywords {
		visit(&m.keywords[i])
	}
	for i := range m.stack {
		visit(&m.stack[i])
	}
	for i := range m.vmFrames {
		visit(&m.vmFrames[i].code)
		visit(&m.vmFrames[i].env)
	}
}

// Intern returns the unique symbol named name, creating it on first
// use. A new symbol goes in the overlay.
func (m *Machine) Intern(name string) obj.Value {
	if idx, ok := m.base.idx[name]; ok {
		return m.baseSyms[idx]
	}
	nb := len(m.baseSyms)
	if idx, ok := m.symIdx[name]; ok {
		return m.syms[idx-nb]
	}
	s := m.H.MakeSymbol(m.H.MakeString(name))
	var idx int
	if n := len(m.symsFree); n > 0 {
		idx = m.symsFree[n-1]
		m.symsFree = m.symsFree[:n-1]
		m.syms[idx-nb] = s
		m.symNames[idx-nb] = name
	} else {
		idx = nb + len(m.syms)
		m.syms = append(m.syms, s)
		m.symNames = append(m.symNames, name)
	}
	if m.symIdx == nil {
		m.symIdx = make(map[string]int)
	}
	m.symIdx[name] = idx
	return s
}

// slot pushes v onto the shadow stack and returns its index.
type slot int

func (m *Machine) slot(v obj.Value) slot {
	m.stack = append(m.stack, v)
	return slot(len(m.stack) - 1)
}

func (m *Machine) get(s slot) obj.Value    { return m.stack[s] }
func (m *Machine) set(s slot, v obj.Value) { m.stack[s] = v }

// safepoint is the VM's poll at calls and backward jumps: it runs the
// collect-request handler when an automatic collection is pending. All
// machine state is rooted there.
func (m *Machine) safepoint() {
	if m.H.Safepoint() {
		m.H.Checkpoint()
	}
}

// SetFuel bounds further execution to n steps (VM calls and backward
// jumps); a program that exceeds its budget stops with an error
// instead of running forever. Pass -1 for unlimited (the default).
// Useful for sandboxed evaluation and for fuzzing a Turing-complete
// language.
func (m *Machine) SetFuel(n int64) { m.fuel = n }

// burn consumes one unit of fuel.
func (m *Machine) burn() error {
	if m.fuel < 0 {
		return nil
	}
	if m.fuel == 0 {
		return fmt.Errorf("scheme: execution budget exhausted")
	}
	m.fuel--
	return nil
}

func (m *Machine) isSymbol(v obj.Value) bool { return m.H.IsKind(v, obj.KSymbol) }

// specialFormOf reports whether head is a special-form keyword (by
// symbol identity against the interned keyword symbols).
func (m *Machine) specialFormOf(head obj.Value) (formID, bool) {
	if !m.isSymbol(head) {
		return 0, false
	}
	for id, kw := range m.keywords[:numForms] {
		if head == kw {
			return formID(id), true
		}
	}
	return 0, false
}

// errf builds an error that includes a rendering of the offending
// expression.
func (m *Machine) errf(v obj.Value, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("scheme: %s: %s", msg, m.WriteString(v))
}

// primAt returns the dispatch entry of primitive index idx: a
// built-in, or one of this machine's host primitives. It is nil for a
// host index the machine has not registered (yet): a primitive
// immediate restored from an image or a template before the host
// re-ran its DefinePrim calls.
func (m *Machine) primAt(idx int) *prim {
	if idx < len(builtins) {
		return &builtins[idx]
	}
	if idx -= len(builtins); idx < len(m.hostPrims) {
		return &m.hostPrims[idx]
	}
	return nil
}

// callPrimIndex checks arity and invokes the primitive with host-table
// index idx.
func (m *Machine) callPrimIndex(idx int, a Args) (obj.Value, error) {
	p := m.primAt(idx)
	if p == nil {
		return obj.Void, fmt.Errorf("scheme: primitive %d is not installed", idx)
	}
	if a.n < p.min || (p.max >= 0 && a.n > p.max) {
		return obj.Void, fmt.Errorf("scheme: %s: wrong number of arguments (%d)", p.name, a.n)
	}
	return p.fn(m, a)
}

// applyReference applies a closure of the reference evaluator, the
// tree-walker that the package's tests keep as an executable
// specification of the VM. Those tests install it; in production it is
// nil and no such closure exists.
var applyReference func(m *Machine, fn obj.Value, argsBase, n int) (obj.Value, error)

// isReference reports whether v is a reference-evaluator closure that
// applyReference can run: a record tagged %reference-closure.
func (m *Machine) isReference(v obj.Value) bool {
	if applyReference == nil || !m.H.IsKind(v, obj.KRecord) {
		return false
	}
	i, ok := m.symbolIndex("%reference-closure")
	return ok && m.H.RecordRTD(v) == m.symbol(i)
}

// Apply invokes fn (a compiled closure, primitive or continuation) on
// args from Go code — used by the apply primitive, call/cc,
// dynamic-wind and the collect-request handler bridge.
func (m *Machine) Apply(fn obj.Value, args []obj.Value) (obj.Value, error) {
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	m.stack = append(m.stack, args...)
	n := len(args)
	switch {
	case fn.IsPrim():
		return m.callPrimIndex(fn.PrimIndex(), Args{m: m, base: base, n: n})
	case m.isCompiledClosure(fn):
		return m.applyCompiled(fn, base, n)
	case m.isContinuation(fn):
		val := obj.Value(obj.Void)
		if n >= 1 {
			val = m.stack[base]
		}
		return m.invokeContinuation(fn, val)
	case m.isReference(fn):
		return applyReference(m, fn, base, n)
	}
	return obj.Void, m.errf(fn, "attempt to apply non-procedure")
}

// EvalString reads src and runs every form through the bytecode
// compiler and VM, returning the last value. The returned value is
// valid until the next collection; root it if it must live longer.
// Each form's top-level code object is garbage once it has run. Panics
// from malformed programs reaching heap accessors are converted to
// errors at this boundary.
func (m *Machine) EvalString(src string) (v obj.Value, err error) {
	stackBase, frameBase, depthBase := len(m.stack), len(m.vmFrames), m.depth
	defer func() {
		if r := recover(); r != nil {
			m.stack = m.stack[:stackBase]
			m.vmFrames = m.vmFrames[:frameBase]
			m.depth = depthBase
			v, err = obj.Void, fmt.Errorf("scheme: %v", r)
		}
	}()
	forms, err := m.ReadAll(src)
	if err != nil {
		return obj.Void, err
	}
	base := len(m.stack)
	defer func() { m.stack = m.stack[:base] }()
	m.stack = append(m.stack, forms...)
	resS := m.slot(obj.Void)
	for i := range forms {
		code, err := m.CompileTop(m.stack[base+i])
		if err != nil {
			return obj.Void, err
		}
		r, err := m.RunCode(code)
		if err != nil {
			return obj.Void, err
		}
		m.set(resS, r)
	}
	return m.get(resS), nil
}

// MustEval evaluates src and panics on error (test helper).
func (m *Machine) MustEval(src string) obj.Value {
	v, err := m.EvalString(src)
	if err != nil {
		panic(err)
	}
	return v
}

// Gensym returns a fresh uninterned-looking (but interned, uniquely
// named) symbol.
func (m *Machine) Gensym() obj.Value {
	m.gensymN++
	return m.Intern(fmt.Sprintf("g%d%%", m.gensymN))
}
