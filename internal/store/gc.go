package store

import (
	"errors"
	"io/fs"
)

// On-disk GC: when the store has a byte budget, every save first
// reserves room, evicting the lowest-priority artifacts from the
// index, which is a Cache: the Greedy-Dual-Size policy of the
// in-memory caches, applied to files. Victims leave the index under
// the lock but their files are deleted afterwards, outside it —
// batched, lock-free deletes — and until a delete succeeds the
// victim's bytes stay charged against the budget (the doomed set), so
// the on-disk footprint can never overshoot even when deletes fail.

// reserve admits size new bytes against the budget, evicting as
// needed. Eviction is optimistic — it assumes the victims' deletes
// will succeed — so the caller must pass the victims to removeVictims
// and then call confirmReserve, which re-checks against whatever
// doomed bytes the deletes failed to free. reserve returns every
// victim whose file still needs deleting (including retries of
// earlier failed deletes) and whether the save may tentatively
// proceed.
func (st *Store) reserve(size int64) ([]Evicted[kind], bool) {
	if st.maxBytes <= 0 {
		return nil, true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if size > st.maxBytes {
		st.gcRejected++
		return st.pendingVictimsLocked(), false
	}
	st.evictLocked(st.maxBytes - size - st.reserved)
	if st.index.Bytes()+st.reserved+size > st.maxBytes {
		// Even evicting everything could not make room (concurrent
		// reservations hold the rest of the budget).
		st.gcRejected++
		return st.pendingVictimsLocked(), false
	}
	st.reserved += size
	return st.pendingVictimsLocked(), true
}

// confirmReserve is the pessimistic half of reserve, called after
// removeVictims: any victim whose delete failed is still on disk and
// still charged (doomedBytes), so if those pins leave no room the
// reservation is released and the save refused — the footprint can
// never overshoot even when deletes fail.
func (st *Store) confirmReserve(size int64) bool {
	if st.maxBytes <= 0 {
		return true
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.index.Bytes()+st.doomedBytes+st.reserved <= st.maxBytes {
		return true
	}
	st.reserved -= size
	st.gcRejected++
	return false
}

func (st *Store) unreserve(size int64) {
	st.mu.Lock()
	st.reserved -= size
	st.mu.Unlock()
}

// evictLocked moves lowest-priority entries into the doomed set until
// the indexed bytes fit under target. Doomed bytes are not counted
// here — eviction assumes their deletes will succeed; confirmReserve
// accounts for the ones that did not.
func (st *Store) evictLocked(target int64) {
	for _, v := range st.index.EvictTo(max(target, 0)) {
		if v.Val == kindPlan {
			st.plans--
		}
		st.doomed[v.Key] = v
		st.doomedBytes += v.Bytes
	}
}

func (st *Store) pendingVictimsLocked() []Evicted[kind] {
	if len(st.doomed) == 0 {
		return nil
	}
	out := make([]Evicted[kind], 0, len(st.doomed))
	for _, v := range st.doomed {
		out = append(out, v)
	}
	return out
}

// removeVictims deletes evicted artifacts from disk, outside the
// store lock. A successful (or already-gone) delete settles the
// victim's budget charge and journals the drop; a failed delete
// leaves it doomed — still charged — to be retried by the next
// reserve.
func (st *Store) removeVictims(victims []Evicted[kind]) {
	if len(victims) == 0 {
		return
	}
	var dropped []manRecord
	for _, v := range victims {
		stem := v.Key[2:]
		st.mu.Lock()
		if _, doomed := st.doomed[v.Key]; !doomed {
			// Another save's batch already settled this victim.
			st.mu.Unlock()
			continue
		}
		if _, revived := st.index.Peek(v.Key); revived {
			// The key was re-saved while doomed; the new file must
			// live. Its new size is already accounted in the index.
			delete(st.doomed, v.Key)
			st.doomedBytes -= v.Bytes
			st.mu.Unlock()
			continue
		}
		st.mu.Unlock()
		err := st.fsys.Remove(st.stemPath(v.Val, stem))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		st.mu.Lock()
		if _, doomed := st.doomed[v.Key]; doomed {
			delete(st.doomed, v.Key)
			st.doomedBytes -= v.Bytes
			st.gcEvictions++
			st.gcEvictedBytes += v.Bytes
			dropped = append(dropped, manRecord{op: manDrop, kind: v.Val, stem: stem})
		}
		st.mu.Unlock()
	}
	st.appendManifest(dropped...)
}

// runGC enforces the budget immediately — the boot-time hook for a
// budget that shrank (or appeared) since the artifacts were written.
func (st *Store) runGC() {
	if st.maxBytes <= 0 {
		return
	}
	st.mu.Lock()
	st.evictLocked(st.maxBytes)
	victims := st.pendingVictimsLocked()
	st.mu.Unlock()
	st.removeVictims(victims)
}
