package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/store"
)

// stateStore is the daemon's durable state directory: per session, a
// JSON manifest (the PUT-time SessionRequest carrying the sticky updated
// snapshot last persisted, enough to rebuild the session from scratch)
// and a binary verdict-cache snapshot
// (internal/store's checksummed format). Both files are written
// atomically, so a crash at any moment leaves each at its previous
// complete contents. Layout:
//
//	<dir>/sessions/<name>.json   manifest
//	<dir>/sessions/<name>.snap   verdict-cache snapshot
//
// Session names are validated by validSessionName ([A-Za-z0-9._-], no
// leading dot or dash), so they compose into file names safely.
type stateStore struct{ dir string }

// manifestVersion gates manifest decoding the way store.Version gates
// snapshots: a manifest from a different layout restores cold.
const manifestVersion = 1

// sessionManifest is the on-disk manifest: everything needed to
// rebuild the session's engine, plus a version gate and a timestamp
// for operators.
type sessionManifest struct {
	Version int             `json:"version"`
	SavedAt time.Time       `json:"saved_at"`
	Request *SessionRequest `json:"request"`
}

func newStateStore(dir string) (*stateStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	return &stateStore{dir: dir}, nil
}

func (st *stateStore) manifestPath(name string) string {
	return filepath.Join(st.dir, "sessions", name+".json")
}

func (st *stateStore) snapshotPath(name string) string {
	return filepath.Join(st.dir, "sessions", name+".snap")
}

// saveManifest durably records the session's build recipe.
func (st *stateStore) saveManifest(name string, req *SessionRequest) error {
	m := sessionManifest{Version: manifestVersion, SavedAt: time.Now().UTC(), Request: req}
	data, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(st.manifestPath(name), append(data, '\n'))
}

// loadManifest reads and validates a session's manifest. The request
// inside is re-validated exactly like a wire PUT body — a hand-edited
// or damaged manifest is refused, not half-trusted.
func (st *stateStore) loadManifest(name string) (*SessionRequest, error) {
	data, err := os.ReadFile(st.manifestPath(name))
	if err != nil {
		return nil, err
	}
	req, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("manifest %s: %w", name, err)
	}
	return req, nil
}

// decodeManifest decodes a manifest: its request member where it sits, as
// DecodeSessionRequest decodes a body but leniently (a key an older daemon
// stored is dropped, not refused), and the rest by encoding/json, with the
// request replaced by null unless splitMembers cannot vouch for the walk.
func decodeManifest(data []byte) (*SessionRequest, error) {
	var m struct {
		Version int             `json:"version"`
		Request json.RawMessage `json:"request"`
	}
	envelope, spans, _ := splitMembers(data, []netMember{{key: "request"}}, func(_, at int) (int, bool) {
		return skipValue(data, at), true
	})
	if err := json.Unmarshal(envelope, &m); err != nil {
		return nil, err
	}
	if spans != nil {
		m.Request = data[spans[0][0]:spans[0][1]]
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("version %d (want %d)", m.Version, manifestVersion)
	}
	if len(m.Request) == 0 || string(m.Request) == "null" {
		return nil, fmt.Errorf("missing session request")
	}
	return decodeSessionRequest(m.Request, json.Unmarshal)
}

func (st *stateStore) saveSnapshot(name string, snap *core.VerdictSnapshot) error {
	return store.Write(st.snapshotPath(name), snap)
}

func (st *stateStore) loadSnapshot(name string) (*core.VerdictSnapshot, error) {
	return store.Read(st.snapshotPath(name))
}

// removeSnapshot drops only the verdict snapshot (a replaced session's
// old cache would fail the digest gate anyway; removing it keeps the
// directory honest).
func (st *stateStore) removeSnapshot(name string) {
	os.Remove(st.snapshotPath(name)) //nolint:errcheck // best-effort
}

// remove drops every persisted trace of a session (DELETE), reporting
// whether a manifest actually existed.
func (st *stateStore) remove(name string) bool {
	err := os.Remove(st.manifestPath(name))
	st.removeSnapshot(name)
	return err == nil
}

// isStaleState reports whether err is a version-gated snapshot (a
// format from a different build — restore cold, distinctly counted
// from corruption).
func isStaleState(err error) bool { return store.IsStale(err) }

// names lists the sessions with a persisted manifest, sorted.
func (st *stateStore) names() []string {
	ents, err := os.ReadDir(filepath.Join(st.dir, "sessions"))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		n, ok := strings.CutSuffix(e.Name(), ".json")
		if ok && validSessionName(n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
