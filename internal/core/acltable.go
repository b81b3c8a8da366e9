package core

import (
	"slices"
	"sync"

	"jinjing/internal/acl"
)

// aclTable is the engine's one answer to "are these two ACLs the same": it
// gives each distinct ACL content a dense int32 ID, in first-seen order.
// acl.Fingerprint only picks the bucket; acl.Equal decides. Every layer
// that needs ACL identity — the check's and CheckMonolithic's encoded
// pairs, fix's and generate's first-match indexes, the verdict cache's
// keys — reads these IDs, so a cached verdict replays only for the same
// contents. Each content's destination index is built here too, once,
// however many generations and primitives read it (see index).
//
// The table keeps one private copy per content, so an ID's meaning cannot
// change under a caller that later mutates its ACL in place. It is
// append-only and safe for concurrent use: a verdict cache's table is
// shared by every engine bound to the cache.
type aclTable struct {
	mu      sync.Mutex
	reps    []*acl.ACL         // by ID
	dst     []*acl.DstIndex    // by ID; nil until index first asks
	buckets map[uint64][]int32 // Fingerprint -> IDs
}

// intern returns the ID of a's content, assigning the next ID to content
// not seen before. nil is permit-all.
func (t *aclTable) intern(a *acl.ACL) int32 {
	if a == nil {
		a = acl.PermitAll()
	}
	fp := a.Fingerprint()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.buckets[fp] {
		if t.reps[id].Equal(a) {
			return id
		}
	}
	id := int32(len(t.reps))
	t.reps = append(t.reps, a.Clone())
	t.dst = append(t.dst, nil)
	if t.buckets == nil {
		t.buckets = map[uint64][]int32{}
	}
	t.buckets[fp] = append(t.buckets[fp], id)
	return id
}

// index returns content id and its rules indexed by destination
// (acl.NewDstIndex), built on first use. Neither is ever rewritten, so
// both may be read without the lock.
func (t *aclTable) index(id int32) (*acl.ACL, *acl.DstIndex) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dst[id] == nil {
		t.dst[id] = acl.NewDstIndex(t.reps[id].Rules)
	}
	return t.reps[id], t.dst[id]
}

// view returns the representative of every ID assigned so far, indexed by
// ID. The table never rewrites an entry, so the slice may be read without
// the lock while the table grows.
func (t *aclTable) view() []*acl.ACL {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clip(t.reps)
}
