package scheme_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/heap"
	"repro/internal/obj"
	"repro/internal/scheme"
)

// Corrupt-image hardening for LoadMachineImage, which guardian-repl
// -load-image runs on files from disk: no input — truncated, bit-flipped
// or hostile — may panic the loader, and an image it accepts holds a
// heap that passes Verify and a machine that can evaluate.

// machineImage saves m.
func machineImage(tb testing.TB, m *scheme.Machine) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.SaveImage(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// richMachineImage is the image of a machine holding a guardian with a
// pending registration, a closure over state, and a pruned symbol (a
// freed slot in the symbol table's tail).
func richMachineImage(tb testing.TB) []byte {
	tb.Helper()
	m := scheme.New(heap.NewDefault(), nil)
	m.EnableSymbolPruning(true)
	m.MustEval(`
		(define counter (let ([n 0]) (lambda () (set! n (+ n 1)) n)))
		(define G (make-guardian))
		(G (list 'guarded))
		(string->symbol "pruned-soon")
		(collect 3)`)
	return machineImage(tb, m)
}

// loadMachineOutcome is the property the sweep and the fuzzer share:
// LoadMachineImage does not panic, and either errors with no machine
// or returns one whose heap passes Verify and which evaluates (+ 1 2)
// (to 3, unless the corruption rebound + itself, which it may: an
// accepted image can hold different data).
func loadMachineOutcome(t *testing.T, data []byte) error {
	t.Helper()
	m, err := scheme.LoadMachineImage(bytes.NewReader(data), nil)
	if err != nil {
		if m != nil {
			t.Fatalf("LoadMachineImage returned err %v AND a machine", err)
		}
		return err
	}
	if errs := m.H.Verify(); len(errs) > 0 {
		t.Fatalf("LoadMachineImage accepted an unverifiable heap: %v", errs[0])
	}
	m.EvalString("(+ 1 2)")
	return nil
}

// TestLoadMachineImageCorrupt sweeps corruptions of a default
// machine's image: strict prefixes (at a stride, and every one of the
// last bytes) are rejected, and single-byte flips at a stride, three
// per offset, never panic.
func TestLoadMachineImageCorrupt(t *testing.T) {
	img := machineImage(t, scheme.New(heap.NewDefault(), nil))
	m, err := scheme.LoadMachineImage(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	expectEval(t, m, "(+ 1 2)", "3")

	stride := len(img)/97 + 1
	for n := 0; n < len(img); n += stride {
		if err := loadMachineOutcome(t, img[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(img))
		}
	}
	for n := len(img) - 64; n < len(img); n++ {
		if err := loadMachineOutcome(t, img[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(img))
		}
	}

	loads, accepted := 0, 0
	for off := 0; off < len(img); off += 75 {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), img...)
			mut[off] ^= flip
			if loadMachineOutcome(t, mut) == nil {
				accepted++
			}
			loads++
		}
	}
	t.Logf("%d flipped images loaded without a panic, %d of them accepted", loads, accepted)
}

func FuzzLoadMachineImage(f *testing.F) {
	plain := machineImage(f, scheme.New(heap.NewDefault(), nil))
	f.Add(plain)
	f.Add(richMachineImage(f))
	f.Add(plain[:len(plain)-5])
	f.Add([]byte("GUARDMACH7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loadMachineOutcome(t, data)
	})
}

// TestLoadMachineImageRejectsInconsistentTable plants corruptions the
// heap image cannot see, each in the symbol table after it, and
// demands a clean rejection: a symbol slot that holds no symbol, a
// snapshot that is no value of the heap, a built-in or keyword renamed
// out of the base, a duplicate name, and free-list entries naming a
// live slot or one in the base.
func TestLoadMachineImageRejectsInconsistentTable(t *testing.T) {
	m := scheme.New(heap.NewDefault(), nil)
	m.EnableSymbolPruning(true)
	m.MustEval(`(define kept 1) (string->symbol "pruned-soon")`)
	m.H.Collect(m.H.MaxGeneration())
	img := machineImage(t, m)
	var heapImg bytes.Buffer
	if err := m.H.SaveImage(&heapImg); err != nil {
		t.Fatal(err)
	}

	// Walk the table SaveImage wrote after the heap image: per base
	// slot name, symbol, value and plist; per tail slot name and
	// symbol; then the free list.
	off := len("GUARDMACH7\n") + heapImg.Len()
	word := func() uint64 { off += 8; return binary.LittleEndian.Uint64(img[off-8:]) }
	type slot struct {
		index, nameAt, symAt int // symAt: the symbol word; in the base, value and plist follow
		value                obj.Value
	}
	slots := map[string]slot{}
	read := func(first int, base bool) int {
		n := int(word())
		for i := 0; i < n; i++ {
			s := slot{index: first + i, nameAt: off + 8}
			off += 8 + int(binary.LittleEndian.Uint64(img[off:]))
			s.symAt = off
			word()
			if base {
				s.value = obj.Value(word())
				word()
			}
			slots[string(img[s.nameAt:s.symAt])] = s
		}
		return n
	}
	nBase := read(0, true)
	read(nBase, false)
	if n := word(); n != 1 {
		t.Fatalf("setup: %d free slots, want 1", n)
	}
	freeAt := off
	put := func(mut []byte, at int, v uint64) { binary.LittleEndian.PutUint64(mut[at:], v) }
	car := slots["car"]

	cases := map[string]func(mut []byte){
		"symbol slot holds a fixnum":      func(mut []byte) { put(mut, car.symAt, uint64(obj.FromFixnum(7))) },
		"symbol slot holds a closure":     func(mut []byte) { put(mut, car.symAt, uint64(slots["map"].value)) },
		"symbol slot points past heap":    func(mut []byte) { put(mut, car.symAt, uint64(obj.ObjAt(1<<40))) },
		"snapshot points past the heap":   func(mut []byte) { put(mut, car.symAt+8, uint64(obj.ObjAt(1<<40))) },
		"plist is a forwarding word":      func(mut []byte) { put(mut, car.symAt+16, obj.MakeFwd(8)) },
		"built-in renamed out of base":    func(mut []byte) { copy(mut[car.nameAt:], "caz") },
		"keyword renamed out of base":     func(mut []byte) { copy(mut[slots["lambda"].nameAt:], "lambdb") },
		"two slots named car":             func(mut []byte) { copy(mut[slots["cdr"].nameAt:], "car") },
		"tail slot named like a base one": func(mut []byte) { copy(mut[slots["kept"].nameAt:], "cons") },
		"free entry names a live slot":    func(mut []byte) { put(mut, freeAt, uint64(slots["kept"].index)) },
		"free entry names a base slot":    func(mut []byte) { put(mut, freeAt, 3) },
		"free entry past the table":       func(mut []byte) { put(mut, freeAt, 1<<20) },
	}
	for name, corrupt := range cases {
		mut := append([]byte(nil), img...)
		corrupt(mut)
		if _, err := scheme.LoadMachineImage(bytes.NewReader(mut), nil); err == nil {
			t.Errorf("%s: image accepted", name)
		}
	}
	if _, err := scheme.LoadMachineImage(bytes.NewReader(img), nil); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}
