package scheme

import (
	"fmt"

	"repro/internal/obj"
)

// Escape continuations. The paper's motivating example for guarded
// ports is that "because of exceptions and nonlocal exits, a port may
// not be closed explicitly by a user program before the last reference
// to it is dropped" (§1). call/cc with upward (escape-only)
// continuations provides exactly those nonlocal exits: invoking the
// continuation abandons the rest of the call/cc body — including any
// close-output-port that would have run — and control returns to the
// call/cc point.
//
// A continuation is represented as a one-field record whose type
// descriptor is the interned symbol %continuation and whose field is
// the activation id. Invoking it panics with a contEscape that the
// owning call/cc activation recovers; each VM activation's deferred
// shadow-stack truncation runs during unwinding, so the machine stays
// consistent. Invoking a continuation whose call/cc has already
// returned is an error (escape-only semantics; there is no
// re-entrancy and no dynamic-wind).

type contEscape struct {
	id  int64
	val obj.Value
}

// isContinuation reports whether v is an escape-continuation record.
func (m *Machine) isContinuation(v obj.Value) bool {
	return m.H.IsKind(v, obj.KRecord) && m.H.RecordRTD(v) == m.keywords[kwContinuation]
}

// invokeContinuation escapes to the owning call/cc activation.
func (m *Machine) invokeContinuation(k obj.Value, val obj.Value) (obj.Value, error) {
	id := m.H.RecordRef(k, 0).FixnumValue()
	if !m.activeConts[id] {
		return obj.Void, fmt.Errorf(
			"scheme: continuation invoked after its call/cc returned (escape-only continuations)")
	}
	panic(contEscape{id: id, val: val})
}

// callCC implements call-with-current-continuation.
func (m *Machine) callCC(f obj.Value) (result obj.Value, err error) {
	if !m.isApplicable(f) {
		return obj.Void, m.errf(f, "call/cc: not a procedure")
	}
	m.nextContID++
	id := m.nextContID
	if m.activeConts == nil {
		m.activeConts = make(map[int64]bool)
	}
	m.activeConts[id] = true
	defer delete(m.activeConts, id)

	base := len(m.stack)
	fS := m.slot(f)
	k := m.H.MakeRecord(m.keywords[kwContinuation], 1)
	m.H.RecordSet(k, 0, obj.FromFixnum(id))
	kS := m.slot(k)

	defer func() {
		if r := recover(); r != nil {
			esc, ok := r.(contEscape)
			if !ok || esc.id != id {
				panic(r) // someone else's escape (or a genuine panic)
			}
			m.stack = m.stack[:base]
			result, err = esc.val, nil
		}
	}()
	v, err := m.Apply(m.get(fS), []obj.Value{m.get(kS)})
	m.stack = m.stack[:base]
	return v, err
}

// isApplicable reports whether v can be applied: a primitive, a
// compiled closure, or a continuation.
func (m *Machine) isApplicable(v obj.Value) bool {
	return v.IsPrim() || m.isCompiledClosure(v) || m.isContinuation(v) || m.isReference(v)
}

// dynamicWind implements (dynamic-wind before thunk after) for escape
// continuations: before runs on entry, after runs on exit — whether
// thunk returns normally, raises an error, or escapes through a
// continuation. Because continuations are escape-only, re-entry never
// happens and the after thunk runs exactly once.
func (m *Machine) dynamicWind(before, thunk, after obj.Value) (result obj.Value, err error) {
	if !m.isApplicable(before) || !m.isApplicable(thunk) || !m.isApplicable(after) {
		return obj.Void, fmt.Errorf("scheme: dynamic-wind: all three arguments must be procedures")
	}
	base := len(m.stack)
	afterS := m.slot(after)
	thunkS := m.slot(thunk)
	if _, err := m.Apply(before, nil); err != nil {
		m.stack = m.stack[:base]
		return obj.Void, err
	}
	ran := false
	runAfter := func() error {
		if ran {
			return nil
		}
		ran = true
		_, aerr := m.Apply(m.get(afterS), nil)
		return aerr
	}
	defer func() {
		// A continuation escape (or any panic) unwinds through here:
		// run the after thunk, then let the escape continue.
		if r := recover(); r != nil {
			_ = runAfter()
			m.stack = m.stack[:base]
			panic(r)
		}
	}()
	v, err := m.Apply(m.get(thunkS), nil)
	aerr := runAfter()
	m.stack = m.stack[:base]
	if err != nil {
		return obj.Void, err
	}
	if aerr != nil {
		return obj.Void, aerr
	}
	return v, nil
}
