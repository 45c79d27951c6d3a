package streamload

import (
	"sync/atomic"

	"chordbalance/internal/ids"
)

// KV is the read slice of a netchord client that a NetFetcher drives.
// *netchord.Client satisfies it; its owner cache makes the steady state
// one round trip per chunk, and its servers' ownership check keeps that
// cache honest while churn and Sybil injection move ownership under a
// running stream.
type KV interface {
	Get(key ids.ID) ([]byte, error)
}

// NetFetcher fetches chunks over the wire and, optionally, verifies
// every payload against the catalog — the check the soak test uses to
// prove zero acked-chunk loss. Safe for concurrent use.
type NetFetcher struct {
	kv      KV
	cat     *Catalog
	verify  bool
	corrupt atomic.Uint64
}

// NewNetFetcher wraps kv. With verify set, every delivered chunk is
// compared byte-for-byte against cat's deterministic payload.
func NewNetFetcher(kv KV, cat *Catalog, verify bool) *NetFetcher {
	return &NetFetcher{kv: kv, cat: cat, verify: verify}
}

// Fetch implements Fetcher.
func (nf *NetFetcher) Fetch(obj, chunk int, key ids.ID) (int, error) {
	v, err := nf.kv.Get(key)
	if err != nil {
		return 0, err
	}
	if nf.verify && !nf.cat.VerifyChunk(obj, chunk, v) {
		nf.corrupt.Add(1)
	}
	return len(v), nil
}

// Corrupt returns the number of delivered chunks whose bytes did not
// match the catalog. Nonzero on a verifying run means acked data was
// lost or damaged.
func (nf *NetFetcher) Corrupt() uint64 { return nf.corrupt.Load() }
