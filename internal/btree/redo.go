package btree

import (
	"encoding/binary"

	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// Log entry kinds.
const (
	entrySlot  = 0 // write (key, val) to a slot address
	entryCount = 1 // write val to the node's count header
)

// logEntryBytes is one redo-log entry: one full cacheline per entry so
// consecutive log appends never touch a recently flushed line (the whole
// point of the optimization).
const logEntryBytes = mem.CachelineSize

// LogEntries is the per-writer redo-log capacity; a transaction logs at
// most Fanout+1 updates.
const LogEntries = 2 * (Fanout + 2)

// Writer is the per-thread handle used to update a tree: it owns a PM
// redo-log region, its DRAM mirror, and the commit flag. In InPlace mode
// it is only a session wrapper.
type Writer struct {
	t *Tree
	s *pmem.Session

	logBase  mem.Addr // PM redo-log region
	flagAddr mem.Addr // PM commit flag (8 B, atomically written)
	dramBase mem.Addr // DRAM mirror (0 when no DRAM heap is attached)

	pending []update
	// path and touched are per-insert scratch reused across operations,
	// so the steady-state insert path does not allocate.
	path    []pathEntry
	touched []mem.Addr
}

type update struct {
	kind uint64
	addr mem.Addr
	key  uint64
	val  uint64
}

// NewWriter builds a writer for the tree. dram may be nil; when present
// the redo log is mirrored there, as in the paper's scheme.
func (t *Tree) NewWriter(s *pmem.Session, dram *pmem.Heap) *Writer {
	w := &Writer{t: t, s: s}
	if t.mode == RedoLog {
		// A transaction logs at most LogEntries updates, all within one
		// node, so these buffers never grow after construction.
		w.pending = make([]update, 0, LogEntries)
		w.touched = make([]mem.Addr, 0, NodeBytes/mem.CachelineSize)
		w.logBase = t.heap.Alloc(LogEntries*logEntryBytes, mem.CachelineSize)
		w.flagAddr = t.heap.Alloc(mem.CachelineSize, mem.CachelineSize)
		if dram != nil {
			w.dramBase = dram.Alloc(LogEntries*logEntryBytes, mem.CachelineSize)
		}
	}
	return w
}

// OpenWriter rebinds a writer to its persistent log region and commit
// flag (e.g. on a post-crash image, using the addresses from LogBase
// and FlagAddr of the crashed writer). Call Recover on it to replay a
// committed-but-unapplied transaction.
func (t *Tree) OpenWriter(s *pmem.Session, logBase, flagAddr mem.Addr) *Writer {
	return &Writer{t: t, s: s, logBase: logBase, flagAddr: flagAddr}
}

// Session returns the writer's session.
func (w *Writer) Session() *pmem.Session { return w.s }

// LogBase returns the writer's persistent redo-log address (0 in
// InPlace mode).
func (w *Writer) LogBase() mem.Addr { return w.logBase }

// FlagAddr returns the writer's persistent commit-flag address (0 in
// InPlace mode).
func (w *Writer) FlagAddr() mem.Addr { return w.flagAddr }

// beginTxn starts a new redo transaction.
func (w *Writer) beginTxn() {
	w.pending = w.pending[:0]
}

// logUpdate records a slot write out-of-place: the entry goes to a fresh
// PM log cacheline and is persisted immediately (matching the baseline's
// write count), plus a cheap DRAM mirror write.
func (w *Writer) logUpdate(addr mem.Addr, key, val uint64) {
	w.appendEntry(update{kind: entrySlot, addr: addr, key: key, val: val})
}

// logCount records a node-count update.
func (w *Writer) logCount(node mem.Addr, count uint64) {
	w.appendEntry(update{kind: entryCount, addr: node, val: count})
}

func (w *Writer) appendEntry(u update) {
	idx := len(w.pending)
	if idx >= LogEntries {
		panic("btree: redo log overflow")
	}
	w.pending = append(w.pending, u)

	entry := w.logBase + mem.Addr(idx*logEntryBytes)
	s := w.s
	s.Poke64(entry, u.kind)
	s.Poke64(entry+8, uint64(u.addr))
	s.Poke64(entry+16, u.key)
	s.Poke64(entry+24, u.val)
	s.StoreLine(entry)
	// Persist each entry immediately — out-of-place, so no RAP.
	s.Flush(entry, logEntryBytes)
	s.FenceOrdered()
	if w.dramBase != 0 {
		s.StoreLine(w.dramBase + mem.Addr(idx*logEntryBytes))
	}
}

// logInsertDirect writes, straight into the heap, the log a leaf insert
// leaves once committed, applied and retired: one entry per slot of
// node n shifted up (top first), the entry for (key, val) at pos, the
// count entry, and a zero flag. slots holds the node's cnt slots before
// the shift.
func (w *Writer) logInsertDirect(n mem.Addr, slots []byte, pos, cnt int, key, val uint64) {
	h := w.t.heap
	idx := 0
	for i := cnt; i > pos; i-- {
		old := slots[16*(i-1):]
		w.putEntry(h, idx, entrySlot, slotAddr(n, i), binary.LittleEndian.Uint64(old), binary.LittleEndian.Uint64(old[8:]))
		idx++
	}
	w.putEntry(h, idx, entrySlot, slotAddr(n, pos), key, val)
	w.putEntry(h, idx+1, entryCount, n, 0, uint64(cnt+1))
	h.PutUint64(w.flagAddr, 0)
}

// putEntry writes log entry idx the way appendEntry does, without a
// session.
func (w *Writer) putEntry(h *pmem.Heap, idx int, kind uint64, addr mem.Addr, key, val uint64) {
	e := h.Bytes(w.logBase+mem.Addr(idx*logEntryBytes), 32)
	binary.LittleEndian.PutUint64(e, kind)
	binary.LittleEndian.PutUint64(e[8:], uint64(addr))
	binary.LittleEndian.PutUint64(e[16:], key)
	binary.LittleEndian.PutUint64(e[24:], val)
}

// commit publishes the transaction with an atomic 8-byte flag holding
// the entry count.
func (w *Writer) commit() {
	s := w.s
	s.Store64(w.flagAddr, uint64(len(w.pending)))
	s.Flush(w.flagAddr, 8)
	s.FenceOrdered()
}

// apply writes the logged updates back to their home locations (from the
// DRAM mirror), persists each touched node cacheline once, and retires
// the log.
func (w *Writer) apply() {
	s := w.s
	// Dedup touched lines preserving order (map iteration would make
	// the simulation nondeterministic).
	touched := w.touched[:0]
	for _, u := range w.pending {
		applyUpdate(s, u)
		line := u.addr.Line()
		dup := false
		for _, l := range touched {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			touched = append(touched, line)
		}
	}
	w.touched = touched
	for _, line := range touched {
		s.Flush(line, mem.CachelineSize)
	}
	s.FenceOrdered()
	// Retire: clear the flag so the log region can be reused.
	s.Store64(w.flagAddr, 0)
	s.Flush(w.flagAddr, 8)
	s.FenceOrdered()
	w.pending = w.pending[:0]
}

func applyUpdate(s *pmem.Session, u update) {
	switch u.kind {
	case entrySlot:
		s.Poke64(u.addr, u.key)
		s.Poke64(u.addr+8, u.val)
		s.StoreLine(u.addr)
	case entryCount:
		s.Poke64(u.addr+headerCount, u.val)
		s.StoreLine(u.addr)
	}
}

// Recover replays a writer's committed-but-unapplied redo log after a
// simulated crash. It returns the number of entries replayed (0 when
// the flag shows no committed transaction).
func (w *Writer) Recover() int {
	if w.flagAddr == 0 {
		return 0 // InPlace writers have no log
	}
	s := w.s
	n := int(s.Peek64(w.flagAddr))
	if n <= 0 || n > LogEntries {
		return 0
	}
	for i := 0; i < n; i++ {
		entry := w.logBase + mem.Addr(i*logEntryBytes)
		u := update{
			kind: s.Peek64(entry),
			addr: mem.Addr(s.Peek64(entry + 8)),
			key:  s.Peek64(entry + 16),
			val:  s.Peek64(entry + 24),
		}
		applyUpdate(s, u)
		s.Flush(u.addr.Line(), mem.CachelineSize)
	}
	s.FenceOrdered()
	s.Store64(w.flagAddr, 0)
	s.Flush(w.flagAddr, 8)
	s.FenceOrdered()
	return n
}
