package storage

import "net/http"

// KV is the interface of the peer backend a Tier used to consult on local
// misses.
//
// Deprecated: a Tier reads and writes only its own overlay and disk, so
// nothing consults a KV. It survives only as the type NewPeerKV returns
// and sim.Cache.SetPeers accepts.
type KV interface {
	Get(key string) ([]byte, error)
	Put(key string, data []byte) error
}

// NewPeerKV returns nil, whatever its arguments.
//
// Deprecated: there is no cache-peer tier; a dist coordinator in front
// of the daemons is the one way to share results across them.
func NewPeerKV(bases []string, client *http.Client) KV { return nil }
