package ports

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// Port flag bits (stored in the port object's flags fixnum).
const (
	FlagInput = 1 << iota
	FlagOutput
)

// BufferSize is each port's buffer capacity in bytes.
const BufferSize = 256

// Manager owns the binding between heap port objects and the simulated
// file system, plus the port guardian of §3's example: guarded opens
// register each new port, and CloseDroppedPorts retrieves ports proven
// inaccessible, flushing and closing them.
type Manager struct {
	h  *heap.Heap
	fs *FS
	g  *core.Guardian

	// String-port bookkeeping: hidden file names by descriptor.
	strPorts int
	strNames map[int]string

	// DroppedClosed counts ports closed by CloseDroppedPorts.
	DroppedClosed uint64
}

// NewManager creates a port manager over the given heap and file
// system.
func NewManager(h *heap.Heap, fs *FS) *Manager {
	return &Manager{h: h, fs: fs, g: core.NewGuardian(h), strNames: make(map[int]string)}
}

// FS returns the manager's file system.
func (m *Manager) FS() *FS { return m.fs }

// Release drops the manager's heap references (its guardian); the
// manager must not be used afterwards.
func (m *Manager) Release() { m.g.Release() }

func (m *Manager) newPort(flags int64, fd int) obj.Value {
	buf := m.h.MakeBytevector(BufferSize)
	return m.h.MakePort(flags, int64(fd), buf)
}

// OpenInput opens a file for reading without guarding it (the paper's
// plain open-input-file).
func (m *Manager) OpenInput(name string) (obj.Value, error) {
	fd, err := m.fs.OpenRead(name)
	if err != nil {
		return obj.False, err
	}
	return m.newPort(FlagInput, fd), nil
}

// OpenOutput opens a file for writing without guarding it.
func (m *Manager) OpenOutput(name string) (obj.Value, error) {
	fd, err := m.fs.OpenWrite(name)
	if err != nil {
		return obj.False, err
	}
	return m.newPort(FlagOutput, fd), nil
}

// GuardedOpenInput is §3's guarded-open-input-file: it first closes
// any dropped ports, then opens the file and registers the new port
// with the port guardian.
func (m *Manager) GuardedOpenInput(name string) (obj.Value, error) {
	m.CloseDroppedPorts()
	p, err := m.OpenInput(name)
	if err != nil {
		return obj.False, err
	}
	m.g.Register(p)
	return p, nil
}

// GuardedOpenOutput is §3's guarded-open-output-file.
func (m *Manager) GuardedOpenOutput(name string) (obj.Value, error) {
	m.CloseDroppedPorts()
	p, err := m.OpenOutput(name)
	if err != nil {
		return obj.False, err
	}
	m.g.Register(p)
	return p, nil
}

// CloseDroppedPorts retrieves every port proven inaccessible from the
// port guardian and closes it — flushing unwritten output first, so no
// data is lost (§3's close-dropped-ports). It returns the number of
// ports closed.
func (m *Manager) CloseDroppedPorts() int {
	n := 0
	for {
		if _, ok := m.CloseNextDropped(); !ok {
			return n
		}
		n++
	}
}

// CloseNextDropped retrieves one port proven inaccessible from the
// port guardian and closes it (flushing output first), returning the
// descriptor it occupied. Ports already closed explicitly are skipped.
// ok is false when no dropped port remains. Retrieval order is the
// guardian's tconc order; callers that account reclamation per
// resource (the session server's reclaim log) use this instead of the
// batch CloseDroppedPorts.
func (m *Manager) CloseNextDropped() (fd int, ok bool) {
	for {
		p, got := m.g.Get()
		if !got {
			return 0, false
		}
		if m.IsOpen(p) {
			fd = m.fd(p)
			if m.IsOutput(p) {
				m.mustFlush(p)
			}
			m.mustClose(p)
			m.DroppedClosed++
			return fd, true
		}
	}
}

// RegisterGuarded registers an already-open port with the port
// guardian without first draining dropped ports (unlike GuardedOpen*,
// which run a CloseDroppedPorts pass as in §3's guarded-open). Hosts
// that log reclamation order use it so every close flows through
// their own CloseNextDropped loop.
func (m *Manager) RegisterGuarded(p obj.Value) {
	m.mustPort(p, "register-guarded")
	m.g.Register(p)
}

// InstallCollectHandler arranges for CloseDroppedPorts to run after
// every automatic collection, as in the paper's collect-request-handler
// example:
//
//	(collect-request-handler
//	  (lambda () (collect) (close-dropped-ports)))
func (m *Manager) InstallCollectHandler() {
	m.h.SetCollectRequestHandler(func(h *heap.Heap) {
		h.CollectAuto()
		m.CloseDroppedPorts()
	})
}

// Guardian exposes the port guardian (for tests).
func (m *Manager) Guardian() *core.Guardian { return m.g }

func (m *Manager) mustPort(p obj.Value, op string) {
	if !m.h.IsKind(p, obj.KPort) {
		panic(fmt.Sprintf("ports: %s: not a port: %v", op, p))
	}
}

// IsInput reports whether p is an input port.
func (m *Manager) IsInput(p obj.Value) bool {
	m.mustPort(p, "input-port?")
	return m.h.PortField(p, heap.PortFlags).FixnumValue()&FlagInput != 0
}

// IsOutput reports whether p is an output port.
func (m *Manager) IsOutput(p obj.Value) bool {
	m.mustPort(p, "output-port?")
	return m.h.PortField(p, heap.PortFlags).FixnumValue()&FlagOutput != 0
}

// IsOpen reports whether p has not been closed.
func (m *Manager) IsOpen(p obj.Value) bool {
	m.mustPort(p, "port-open?")
	return m.h.PortField(p, heap.PortOpen) == obj.True
}

func (m *Manager) fd(p obj.Value) int {
	return int(m.h.PortField(p, heap.PortFileID).FixnumValue())
}

// WriteChar buffers one byte on an output port, flushing to the file
// system when the buffer fills. This is the paper's cost model for
// ports: a write is two or three memory references, which the
// weak-pointer header indirection would significantly worsen (§2).
func (m *Manager) WriteChar(p obj.Value, c byte) error {
	m.mustPort(p, "write-char")
	if !m.IsOutput(p) || !m.IsOpen(p) {
		return fmt.Errorf("ports: write-char: not an open output port")
	}
	h := m.h
	idx := int(h.PortField(p, heap.PortIndex).FixnumValue())
	if idx >= BufferSize {
		if err := m.Flush(p); err != nil {
			return err
		}
		idx = 0
	}
	h.ByteSet(h.PortField(p, heap.PortBuffer), idx, c)
	h.SetPortField(p, heap.PortIndex, obj.FromFixnum(int64(idx+1)))
	return nil
}

// WriteString buffers a string on an output port.
func (m *Manager) WriteString(p obj.Value, s string) error {
	for i := 0; i < len(s); i++ {
		if err := m.WriteChar(p, s[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes an output port's buffered data to the file system
// (flush-output-port).
func (m *Manager) Flush(p obj.Value) error {
	m.mustPort(p, "flush-output-port")
	if !m.IsOpen(p) {
		return fmt.Errorf("ports: flush on closed port")
	}
	h := m.h
	idx := int(h.PortField(p, heap.PortIndex).FixnumValue())
	if idx == 0 {
		return nil
	}
	buf := h.PortField(p, heap.PortBuffer)
	data := make([]byte, idx)
	for i := 0; i < idx; i++ {
		data[i] = h.ByteRef(buf, i)
	}
	if err := m.fs.Write(m.fd(p), data); err != nil {
		return err
	}
	h.SetPortField(p, heap.PortIndex, obj.FromFixnum(0))
	return nil
}

// ReadChar reads one byte from an input port, refilling the buffer
// from the file system as needed. It returns obj.EOF at end of file.
func (m *Manager) ReadChar(p obj.Value) (obj.Value, error) {
	m.mustPort(p, "read-char")
	if !m.IsInput(p) || !m.IsOpen(p) {
		return obj.False, fmt.Errorf("ports: read-char: not an open input port")
	}
	h := m.h
	idx := int(h.PortField(p, heap.PortIndex).FixnumValue())
	limit := int(h.PortField(p, heap.PortLimit).FixnumValue())
	buf := h.PortField(p, heap.PortBuffer)
	if idx >= limit {
		tmp := make([]byte, BufferSize)
		n, err := m.fs.Read(m.fd(p), tmp)
		if err != nil {
			return obj.False, err
		}
		if n == 0 {
			return obj.EOF, nil
		}
		for i := 0; i < n; i++ {
			h.ByteSet(buf, i, tmp[i])
		}
		h.SetPortField(p, heap.PortLimit, obj.FromFixnum(int64(n)))
		idx = 0
	}
	c := h.ByteRef(buf, idx)
	h.SetPortField(p, heap.PortIndex, obj.FromFixnum(int64(idx+1)))
	return obj.FromChar(rune(c)), nil
}

// Close closes a port, flushing output first.
func (m *Manager) Close(p obj.Value) error {
	m.mustPort(p, "close-port")
	if !m.IsOpen(p) {
		return nil
	}
	if m.IsOutput(p) {
		if err := m.Flush(p); err != nil {
			return err
		}
	}
	return m.mustClose(p)
}

func (m *Manager) mustFlush(p obj.Value) {
	if err := m.Flush(p); err != nil {
		panic(err)
	}
}

func (m *Manager) mustClose(p obj.Value) error {
	err := m.fs.Close(m.fd(p))
	m.h.SetPortField(p, heap.PortOpen, obj.False)
	return err
}
