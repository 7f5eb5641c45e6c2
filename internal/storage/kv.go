package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"time"
)

// KV is the peer backend a Tier consults on local misses and pushes to
// in push mode. Keys are hex content hashes (the result cache's
// canonical-JSON + SHA-256 identities), values are the self-describing
// entry bytes; a backend never interprets the payload beyond moving it.
//
// Get reports a missing key with an error satisfying IsNotExist, so a
// caller can tell an ordinary miss from a backend fault. Implementations
// must be safe for concurrent use.
//
// PeerKV, the HTTP cache-peer protocol through which worker daemons warm
// each other, is the production backend (see
// DESIGN.md's distributed execution section for the wire contract);
// tests substitute in-memory fakes.
type KV interface {
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
}

// MaxPeerEntry caps how many bytes a peer response (or request) may
// carry: a confused or hostile peer must not balloon memory. Cache
// entries are a few KB of JSON; a megabyte is generous headroom.
const MaxPeerEntry = 1 << 20

// PeerKV speaks the HTTP cache-peer protocol against one or more peer
// daemons: GET {base}/v1/cache/{key} fetches an entry's bytes (200 with
// the payload, 404 for a miss), PUT stores them (204; the receiver
// validates the self-describing envelope before accepting). Fetches try
// the peers in order and return the first hit; pushes go to every peer,
// best-effort. An unreachable or misbehaving peer is never fatal — the
// caller degrades to local compute, which is the protocol's whole
// safety story: peers accelerate, they cannot corrupt or block.
type PeerKV struct {
	// Bases are the peers' base URLs (e.g. "http://10.0.0.2:8744").
	Bases []string
	// Client issues the requests; nil means a client with a conservative
	// 10-second timeout, so one hung peer cannot stall a sweep.
	Client *http.Client
}

// NewPeerKV builds a peer backend over the base URLs (trailing slashes
// trimmed). A nil client gets a 10-second timeout.
func NewPeerKV(bases []string, client *http.Client) *PeerKV {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	trimmed := make([]string, len(bases))
	for i, b := range bases {
		trimmed[i] = strings.TrimRight(b, "/")
	}
	return &PeerKV{Bases: trimmed, Client: client}
}

func (p *PeerKV) url(base, key string) string {
	return base + "/v1/cache/" + key
}

// Get implements KV: the peers are tried in order and the first 200 wins.
// When every peer misses (404) the error satisfies IsNotExist; transport
// failures and unexpected statuses are folded into the returned error
// but a later peer can still satisfy the fetch.
func (p *PeerKV) Get(key string) ([]byte, error) {
	var errs []error
	for _, base := range p.Bases {
		resp, err := p.Client.Get(p.url(base, key))
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", base, err))
			continue
		}
		b, err := readCapped(resp.Body)
		_ = resp.Body.Close() // body already consumed; a close error cannot change the fetch
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("peer %s: %w", base, err))
		case resp.StatusCode == http.StatusOK:
			return b, nil
		case resp.StatusCode == http.StatusNotFound:
			// An ordinary miss; keep asking the remaining peers.
		default:
			errs = append(errs, fmt.Errorf("peer %s: status %d", base, resp.StatusCode))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return nil, fmt.Errorf("peer miss %s: %w", key, fs.ErrNotExist)
}

// Put implements KV by pushing the entry to every peer. Failures are
// joined and reported, but a push is advisory by design — the caller's
// durable tier is its own disk, and a peer that refused an entry will
// simply fetch it on demand later.
func (p *PeerKV) Put(key string, data []byte) error {
	var errs []error
	for _, base := range p.Bases {
		req, err := http.NewRequest(http.MethodPut, p.url(base, key), bytes.NewReader(data))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := p.Client.Do(req)
		if err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", base, err))
			continue
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, MaxPeerEntry)) // drain for keep-alive reuse
		_ = resp.Body.Close()                                               // push is advisory; the status check below is the real verdict
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			errs = append(errs, fmt.Errorf("peer %s: status %d", base, resp.StatusCode))
		}
	}
	return errors.Join(errs...)
}

// readCapped reads a response body up to MaxPeerEntry, erroring when the
// payload exceeds the cap instead of truncating it into a plausible-
// looking entry.
func readCapped(r io.Reader) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, MaxPeerEntry+1))
	if err != nil {
		return nil, err
	}
	if len(b) > MaxPeerEntry {
		return nil, fmt.Errorf("storage: peer entry exceeds %d bytes", MaxPeerEntry)
	}
	return b, nil
}

// ValidKey reports whether key has the shape of a cache content hash —
// lowercase hex SHA-256. The cache-peer HTTP handlers use it to reject
// path traversal and junk keys before touching any backend.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
