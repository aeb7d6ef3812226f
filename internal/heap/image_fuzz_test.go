package heap_test

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obj"
)

// Corrupt-image hardening tests for LoadImage (and its fuzz harness):
// no input — truncated, bit-flipped, or outright hostile — may panic,
// leak a partially-constructed heap, or yield a heap that fails
// Verify. LoadImage parses the whole stream before building anything,
// so every rejection must arrive as a descriptive error with nothing
// committed.

// richImage serializes a heap exercising every image section: multiple
// generations, object space, marked segments (a weak car's among
// them), a guardian with a pending registration, and a released root
// slot.
func richImage(tb testing.TB) []byte {
	tb.Helper()
	h := heap.NewDefault()
	spine := h.NewRoot(h.List(fx(1), fx(2), fx(3)))
	dead := h.NewRoot(fx(99))
	h.NewRoot(h.MakeString("fuzz corpus"))
	h.NewRoot(h.MakeVector(3, fx(5)))
	h.Collect(0)
	h.Collect(1)
	young := h.Cons(fx(9), obj.Nil)
	h.SetCar(spine.Get(), young)
	h.NewRoot(h.WeakCons(young, obj.Nil))
	tc := h.NewRoot(makeTconc(h))
	h.InstallGuardian(h.Cons(fx(77), obj.Nil), tc.Get())
	dead.Release()
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// loadOutcome is the safety property shared by the corruption sweep
// and the fuzzer: LoadImage never panics, and either errors with
// nothing constructed or returns a heap that passes Verify right
// there. (A flipped bit in a data word can legitimately load — it is
// just different data. It can also fabricate semantic corruption
// Verify cannot prove wrong, such as a pointer into the interior of
// an object, so no post-load collection behaviour is demanded of
// accepted-but-mutated images; collection soundness of genuine images
// is the round-trip tests' job.)
func loadOutcome(t *testing.T, data []byte) error {
	t.Helper()
	h, roots, err := heap.LoadImage(bytes.NewReader(data))
	if err != nil {
		if h != nil || roots != nil {
			t.Fatalf("LoadImage returned err %v AND a heap/handles", err)
		}
		return err
	}
	if errs := h.Verify(); len(errs) > 0 {
		t.Fatalf("LoadImage accepted an unverifiable heap: %v", errs[0])
	}
	return nil
}

// TestLoadImageCorrupt sweeps systematic corruptions of a valid image:
// every strict prefix must be rejected (the format has no slack — each
// byte is owed to some count read earlier), and single-byte
// corruption anywhere must never panic or produce an unsound heap.
func TestLoadImageCorrupt(t *testing.T) {
	img := richImage(t)
	if err := loadOutcome(t, img); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	// The pristine image must additionally survive a full collection.
	h, _, err := heap.LoadImage(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	h.Collect(h.MaxGeneration())
	h.MustVerify()

	stride := len(img)/97 + 1
	for n := 0; n < len(img); n += stride {
		if err := loadOutcome(t, img[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(img))
		}
	}
	for _, n := range []int{len(img) - 1, len(img) - 7, len(img) - 8} {
		if err := loadOutcome(t, img[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(img))
		}
	}

	for off := 0; off < len(img); off += stride {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), img...)
			mut[off] ^= flip
			loadOutcome(t, mut) // must not panic; error or verified heap both fine
		}
	}
}

// TestLoadImageHostileCounts plants adversarial section counts — the
// classic "tiny stream, enormous count" allocation bombs — and demands
// a clean rejection for each.
func TestLoadImageHostileCounts(t *testing.T) {
	img := richImage(t)
	// The header is str(magic) + 7 config u64/u8 fields + stamp +
	// autoCount, then total and inUse segment counts. Locate the two
	// count words by structure: 8(len)+10(magic) + 8*3 + 1*3 + 8 + 8 + 8.
	segCountOff := 8 + 10 + 8 + 8 + 8 + 1 + 1 + 1 + 8 + 8 + 8
	cases := []struct {
		name string
		off  int
		val  uint64
	}{
		{"segment count 1<<40", segCountOff, 1 << 40},
		{"segment count max", segCountOff, ^uint64(0)},
		{"inUse > total", segCountOff + 8, 1 << 30},
	}
	for _, c := range cases {
		mut := append([]byte(nil), img...)
		for i := 0; i < 8; i++ {
			mut[c.off+i] = byte(c.val >> (8 * i))
		}
		if _, _, err := heap.LoadImage(bytes.NewReader(mut)); err == nil {
			t.Fatalf("%s: hostile image accepted", c.name)
		}
	}
}

func FuzzLoadImage(f *testing.F) {
	img := richImage(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:len(img)-3])
	f.Add([]byte{})
	f.Add([]byte("not an image at all"))
	f.Add(append([]byte(nil), img[:40]...)) // header only
	trunc := append([]byte(nil), img...)
	trunc[20] ^= 0xff // corrupt the config region
	f.Add(trunc)
	f.Fuzz(func(t *testing.T, data []byte) {
		loadOutcome(t, data)
	})
}

// TestLoadImageSparseTableProbes: a 75 KB image whose segment-table
// length is rewritten to 4 194 303, alone and with the last segment
// record's index rewritten to match, is rejected or loads and verifies
// in under 50 ms: the table length must be backed by the last record,
// and the free slots below it cost the table only their dense entries.
// (The second is rejected too: the other segments' pointers into the
// moved one dangle, which Verify walks four million slots to report.)
func TestLoadImageSparseTableProbes(t *testing.T) {
	const budget = 50 * time.Millisecond
	h := heap.NewDefault()
	lst := h.NewRoot(obj.Nil)
	for i := 0; i < 4500; i++ {
		lst.Set(h.Cons(fx(int64(i)), lst.Get()))
	}
	h.Collect(0)
	var buf bytes.Buffer
	if err := h.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if len(img) < 70<<10 || len(img) > 80<<10 {
		t.Fatalf("image is %d bytes, want about 75 KB", len(img))
	}
	le := binary.LittleEndian
	const total = 4194303
	segCountOff := 8 + 10 + 8 + 8 + 8 + 1 + 1 + 1 + 8 + 8 + 8
	// A record: index, space (u8), generation, mark (u8), cont (u8),
	// fill, stamp, then fill words.
	last, off := 0, segCountOff+16
	for k := le.Uint64(img[segCountOff+8:]); k > 0; k-- {
		last = off
		off += 8 + 1 + 8 + 1 + 1 + 8 + 8 + 8*int(le.Uint64(img[off+19:]))
	}
	found := append([]byte(nil), img...)
	le.PutUint64(found[segCountOff:], total)
	variant := append([]byte(nil), found...)
	le.PutUint64(variant[last:], total-1)
	for _, p := range []struct {
		name       string
		img        []byte
		mustReject bool
	}{{"table length past the last record", found, true}, {"last record moved to the end", variant, false}} {
		start := time.Now()
		err := loadOutcome(t, p.img)
		took := time.Since(start)
		switch {
		case p.mustReject && err == nil:
			t.Errorf("%s: loaded", p.name)
		case err == nil && took > budget:
			t.Errorf("%s: loaded and verified in %v, want under %v", p.name, took, budget)
		}
		t.Logf("%s: %v in %v", p.name, err, took)
	}
}
