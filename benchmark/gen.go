package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// gen is the seeded input generator. It is the only place the --seed
// argument reaches: the stacks under test see generated requests and
// transactions, never the seed. Every draw is a pure function of
// (seed, stream, i), so the i-th input of a workload is the same whichever
// worker goroutine happens to take it.
type gen struct {
	seed uint64
	// cdf[r] is the zipf(s) probability of a rank <= r.
	cdf []float64
	// walletAt maps a zipf rank to a wallet index: a seeded permutation,
	// so another seed makes other wallets hot.
	walletAt []uint16
}

// Streams keep independent draws of one op apart.
const (
	streamWallet uint64 = iota + 1
	streamKind
	streamArg
	streamGap
	streamPerm
)

func newGen(seed int64, wallets int) *gen {
	g := &gen{seed: uint64(seed), cdf: make([]float64, wallets), walletAt: make([]uint16, wallets)}
	sum := 0.0
	for r := range g.cdf {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		g.cdf[r] = sum
	}
	for r := range g.cdf {
		g.cdf[r] /= sum
	}
	for i := range g.walletAt {
		g.walletAt[i] = uint16(i)
	}
	// Fisher-Yates with the generator's own draws.
	for i := wallets - 1; i > 0; i-- {
		j := int(g.u64(streamPerm, uint64(i)) % uint64(i+1))
		g.walletAt[i], g.walletAt[j] = g.walletAt[j], g.walletAt[i]
	}
	return g
}

// u64 is splitmix64 over (seed, stream, i).
func (g *gen) u64(stream, i uint64) uint64 {
	z := g.seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb + 0x2545f4914f6cdd1d
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a draw to (0,1].
func (g *gen) unit(stream, i uint64) float64 {
	return (float64(g.u64(stream, i)>>11) + 1) / (1 << 53)
}

// rank draws the zipf rank of op i (0 = hottest).
func (g *gen) rank(i uint64) int {
	return sort.SearchFloat64s(g.cdf, g.unit(streamWallet, i))
}

// allowed reports whether the wallet at a rank is on the sender whitelist.
func allowed(rank int) bool { return rank%deniedEvery != deniedEvery-1 }

// allowedRank draws ranks for op i until one is whitelisted; the exec
// workloads use it because a denied wallet never gets a token to spend.
func (g *gen) allowedRank(i uint64) int {
	for try := uint64(0); ; try++ {
		if r := sort.SearchFloat64s(g.cdf, g.unit(streamWallet, i+try<<40)); allowed(r) {
			return r
		}
	}
}

// arrivals draws the arrival times, in seconds, of a Poisson process of
// the given rate over [0, seconds), conditioned on its expected count: that
// many independent uniform instants, sorted. Every seed then offers the same
// number of ops, and the gaps between them stay close to exponential. first
// numbers the draws, so that two parts of a run use different ones.
func (g *gen) arrivals(first uint64, rate, seconds float64) []float64 {
	at := make([]float64, int(math.Round(rate*seconds)))
	for k := range at {
		at[k] = g.unit(streamGap, first+uint64(k)) * seconds
	}
	sort.Float64s(at)
	return at
}

// digest fingerprints the first n draws of every stream a workload uses:
// the determinism test and expected.json pin it.
func (g *gen) digest(n int) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < n; i++ {
		for _, v := range []uint64{
			uint64(g.walletAt[g.rank(uint64(i))]),
			g.u64(streamKind, uint64(i)),
			g.u64(streamArg, uint64(i)),
			g.u64(streamGap, uint64(i)),
		} {
			binary.BigEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
