package membership

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/ts"
	"repro/internal/ts/ring"
)

// Config wires a Manager to its frontend's counter stack.
type Config struct {
	// Group is this frontend's replica-group name.
	Group string
	// Stripe is the frontend's epoch-aware block mapper (over the
	// group's quorum coordinator).
	Stripe *ring.DynamicStripe
	// Counter is the frontend's sharded counter (over Stripe), the
	// holder of the block leases a drain releases.
	Counter *ts.ShardedCounter
	// Journal persists adopted views as KindView WAL records (nil =
	// volatile membership, for tests and benches).
	Journal store.Backend
	// Reclaims, when set, journals drain lease handoffs through the
	// KindReclaim/KindAdopt handshake (normally over the same backend as
	// Journal): the drained ranges are durably offered and consumed
	// before the successor adopts them, so a handoff interrupted by a
	// crash is recovered at the next boot instead of silently burning
	// the ranges. Nil = volatile handoff.
	Reclaims *store.Counter
	// Registry receives the ts_membership_epoch gauge (nil = default).
	Registry *metrics.Registry
	// OwnerToken, when set, is sent as a Bearer token on member calls to
	// other frontends (whose /v1/membership routes sit behind the same
	// owner guard as this one's).
	OwnerToken string
}

// Manager is one frontend's membership agent: it serves the member
// endpoints a view change drives, tracks the adopted view and the
// frontend URL map, and can act as the controller for join/drain
// operations. One Manager per frontend.
type Manager struct {
	cfg   Config
	gauge *metrics.Gauge

	// opMu serializes controller operations started on this frontend;
	// concurrent controllers on different frontends are resolved by
	// epoch conflict (one advance fails, the operator retries).
	opMu sync.Mutex

	mu    sync.Mutex
	view  ring.View
	urls  map[string]string
	baseK int64
}

// NewManager builds the frontend's membership agent from its boot state
// (either the bootstrap view or a persisted State read back through
// StateFromRecords). urls must map every group in v — plus this
// frontend's own group, even when it is still joining and not yet a
// member.
func NewManager(cfg Config, v ring.View, urls map[string]string, baseK int64) (*Manager, error) {
	if cfg.Group == "" {
		return nil, fmt.Errorf("membership: config needs a group name")
	}
	if cfg.Stripe == nil || cfg.Counter == nil {
		return nil, fmt.Errorf("membership: config needs the stripe and sharded counter")
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	for _, g := range v.Groups {
		if urls[g] == "" {
			return nil, fmt.Errorf("membership: no frontend URL for group %q", g)
		}
	}
	m := &Manager{
		cfg:   cfg,
		gauge: metrics.Or(cfg.Registry).Gauge(ts.MetricMembershipEpoch, "Replica-group membership view epoch in effect (0 = no membership view)."),
		view:  v,
		urls:  copyURLs(urls),
		baseK: baseK,
	}
	m.gauge.Set(v.Epoch)
	return m, nil
}

func copyURLs(urls map[string]string) map[string]string {
	out := make(map[string]string, len(urls))
	for g, u := range urls {
		out[g] = u
	}
	return out
}

// View returns the currently adopted view.
func (m *Manager) View() ring.View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// State returns the full durable state (view, adopted base, URL map).
func (m *Manager) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return State{View: m.view, BaseK: m.baseK, URLs: copyURLs(m.urls)}
}

// local is the in-process Member for this frontend's own group.
type local struct{ m *Manager }

func (l local) Group() string { return l.m.cfg.Group }

func (l local) Freeze() (FreezeInfo, error) {
	highest, wasFrozen, err := l.m.cfg.Stripe.Freeze()
	if err != nil {
		return FreezeInfo{}, err
	}
	v, _ := l.m.cfg.Stripe.State()
	return FreezeInfo{Highest: highest, Epoch: v.Epoch, WasFrozen: wasFrozen}, nil
}

func (l local) Advance(v ring.View, urls map[string]string) error {
	m := l.m
	m.mu.Lock()
	cur := m.view
	m.mu.Unlock()
	var baseK int64
	if v.Epoch == cur.Epoch && sameView(v, cur) {
		// Idempotent re-advance: a retried change finds this member
		// already on the target view; persist-before-ack already
		// happened, so just ack.
		m.mu.Lock()
		baseK = m.baseK
		m.mu.Unlock()
	} else {
		var err error
		baseK, err = m.cfg.Stripe.Advance(v)
		if err != nil {
			return err
		}
	}
	st := State{View: v, BaseK: baseK, URLs: urls}
	if err := persistState(m.cfg.Journal, st); err != nil {
		return err
	}
	m.mu.Lock()
	m.view, m.baseK, m.urls = v, baseK, copyURLs(urls)
	m.mu.Unlock()
	m.gauge.Set(v.Epoch)
	return nil
}

func sameView(a, b ring.View) bool {
	if a.Epoch != b.Epoch || a.Watermark != b.Watermark || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	return true
}

func (l local) Resume() error {
	l.m.cfg.Stripe.Resume()
	return nil
}

func (l local) ReleaseLeases() ([]store.IndexRange, error) {
	return l.m.cfg.Counter.Release(), nil
}

func (l local) AdoptLeases(ranges []store.IndexRange) error {
	return l.m.cfg.Counter.Adopt(ranges)
}

// memberFor resolves a group to its Member handle: in-process for this
// frontend's own group, HTTP for everyone else.
func (m *Manager) memberFor(group, url string) Member {
	if group == m.cfg.Group {
		return local{m}
	}
	return &Remote{GroupName: group, Base: url, OwnerToken: m.cfg.OwnerToken}
}

// ChangeResult is what an admin join, drain or repair returns.
type ChangeResult struct {
	View ring.View `json:"view"`
	// LeasesMoved counts one-time indexes handed from the drained group
	// to its successor (0 for joins).
	LeasesMoved int64 `json:"leasesMoved"`
	// Successor is the group that adopted the drained leases: the one at
	// the next slot after the drained group, wrapping around ("" for
	// joins).
	Successor string `json:"successor,omitempty"`
}

// Join runs the controller side of adding a replica group: freeze every
// member plus the joiner, advance all of them to a fresh-epoch view
// whose watermark caps every block allocated so far, and resume. The
// joiner serves only after its advance — recording its epoch base runs a
// full quorum round (catch-up fencing), so it can never map a block at
// or below one an earlier coordinator handed out.
func (m *Manager) Join(group, url string) (*ChangeResult, error) {
	if group == "" || url == "" {
		return nil, fmt.Errorf("membership: join needs a group name and a frontend URL")
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()

	m.mu.Lock()
	cur := m.view
	urls := copyURLs(m.urls)
	m.mu.Unlock()
	if cur.Slot(group) >= 0 {
		return nil, fmt.Errorf("membership: group %q is already a member of view %d", group, cur.Epoch)
	}

	members := make([]Member, 0, len(cur.Groups)+1)
	for _, g := range cur.Groups {
		members = append(members, m.memberFor(g, urls[g]))
	}
	members = append(members, m.memberFor(group, url))

	next := ring.View{
		Groups: append(append([]string(nil), cur.Groups...), group),
	}
	nextURLs := copyURLs(urls)
	nextURLs[group] = url
	if err := m.runChange(members, cur, &next, nextURLs); err != nil {
		return nil, err
	}
	return &ChangeResult{View: next}, nil
}

// Drain runs the controller side of removing a replica group: after the
// fresh-epoch view without it is adopted everywhere, the drained group's
// unexhausted block leases are handed to the group at the next slot
// (wrapping around), so a clean drain burns nothing. Any deterministic
// survivor would do: the handoff is journaled and a failed adoption
// falls back to the controller.
func (m *Manager) Drain(group string) (*ChangeResult, error) {
	m.opMu.Lock()
	defer m.opMu.Unlock()

	m.mu.Lock()
	cur := m.view
	urls := copyURLs(m.urls)
	m.mu.Unlock()
	slot := cur.Slot(group)
	if slot < 0 {
		return nil, fmt.Errorf("membership: group %q is not a member of view %d", group, cur.Epoch)
	}
	if len(cur.Groups) == 1 {
		return nil, fmt.Errorf("membership: refusing to drain the last group %q", group)
	}

	var drained Member
	members := make([]Member, 0, len(cur.Groups))
	var next ring.View
	for _, g := range cur.Groups {
		mem := m.memberFor(g, urls[g])
		members = append(members, mem)
		if g == group {
			drained = mem
			continue
		}
		next.Groups = append(next.Groups, g)
	}
	nextURLs := copyURLs(urls)
	delete(nextURLs, group)
	if err := m.runChange(members, cur, &next, nextURLs); err != nil {
		return nil, err
	}

	// Lease handoff: the drained group is out of the view (its stripe
	// refuses refills), so its remainders are stable — move them to the
	// group at the next slot.
	successor := cur.Groups[(slot+1)%len(cur.Groups)]
	res := &ChangeResult{View: next, Successor: successor}
	ranges, err := drained.ReleaseLeases()
	if err != nil {
		return res, fmt.Errorf("membership: release drained leases of %q: %w", group, err)
	}
	if len(ranges) == 0 {
		return res, nil
	}

	// Durable handoff: journal the ranges as reclaim offers and consume
	// the offers BEFORE the heir adopts. A crash after the offer but
	// before the consume re-offers the ranges to this frontend's next
	// incarnation (which adopts and re-issues them — the heir never saw
	// them); a crash after the consume burns at most these ranges. The
	// reverse order could double-issue: heir adopts, controller crashes,
	// replay re-offers. On a journal error nothing is adopted anywhere —
	// offers already durable are recovered at the next boot, the rest
	// burn; failing toward burn, never toward duplication.
	if m.cfg.Reclaims != nil {
		err := m.cfg.Reclaims.ReleaseRanges(ranges)
		if err == nil {
			err = m.cfg.Reclaims.AdoptRanges(ranges)
		}
		if err != nil {
			res.Successor = ""
			return res, fmt.Errorf("membership: journal lease handoff of %q: %w (durable offers are recovered at this frontend's next restart; unjournaled ranges burn)", group, err)
		}
	}
	var heir Member
	for _, mem := range members {
		if mem.Group() == successor {
			heir = mem
		}
	}
	if err := heir.AdoptLeases(ranges); err != nil {
		// The ranges came from Release and the local free-list is live, so
		// adopting them here cannot fail validation — the drain still burns
		// nothing, this frontend just issues them instead of the heir.
		_ = m.cfg.Counter.Adopt(ranges)
		res.Successor = m.cfg.Group
		res.LeasesMoved = countIndexes(ranges)
		return res, fmt.Errorf("membership: hand leases to %q: %w (%d indexes adopted by %q instead)",
			successor, err, res.LeasesMoved, m.cfg.Group)
	}
	res.LeasesMoved = countIndexes(ranges)
	return res, nil
}

func countIndexes(ranges []store.IndexRange) int64 {
	var n int64
	for _, r := range ranges {
		n += r.To - r.From + 1
	}
	return n
}

// Repair re-runs the view-change protocol over the current member set at
// a fresh epoch — the recovery op for a change that failed mid-advance
// and left some members frozen on an older epoch. It must run on a
// frontend whose adopted view is the newest (runChange aborts when a
// member reports a higher epoch), which after a partial advance is any
// frontend the failed change already advanced.
func (m *Manager) Repair() (*ChangeResult, error) {
	m.opMu.Lock()
	defer m.opMu.Unlock()

	m.mu.Lock()
	cur := m.view
	urls := copyURLs(m.urls)
	m.mu.Unlock()

	members := make([]Member, 0, len(cur.Groups))
	for _, g := range cur.Groups {
		members = append(members, m.memberFor(g, urls[g]))
	}
	next := ring.View{Groups: append([]string(nil), cur.Groups...)}
	if err := m.runChange(members, cur, &next, urls); err != nil {
		return nil, err
	}
	return &ChangeResult{View: next}, nil
}

// runChange executes the freeze → watermark → advance → resume protocol
// over the member set, filling in next's epoch (fresh: above every
// member's current one, so a retried change never collides with a
// partially-adopted earlier attempt) and watermark (the highest block
// any member ever allocated).
//
// Failure handling fails toward unavailability, never duplication:
//
//   - Abort before any advance: resume exactly the members this run
//     froze (WasFrozen=false), restoring the status quo without touching
//     members an earlier failed change left frozen.
//   - Abort mid-advance: resume only the members that acked the new
//     view — they all sit on the unique newest epoch and stay mutually
//     disjoint. Everyone else (including the member whose advance
//     errored, which may or may not have adopted) STAYS FROZEN, because
//     old-view members allocating concurrently with new-view ones use a
//     different stride and can collide. The error names the frozen
//     groups; the operator re-runs the change or repairs from an
//     advanced frontend.
//   - A member reporting an epoch above the controller's view aborts the
//     change before a watermark is computed: a stale controller's view
//     may miss groups whose allocations the watermark must cover.
func (m *Manager) runChange(members []Member, cur ring.View, next *ring.View, nextURLs map[string]string) error {
	frozeNow := make([]Member, 0, len(members))
	restore := func() {
		for _, mem := range frozeNow {
			_ = mem.Resume()
		}
	}

	watermark := cur.Watermark
	maxEpoch := cur.Epoch
	var ahead []string
	for _, mem := range members {
		info, err := mem.Freeze()
		if err != nil {
			restore()
			return fmt.Errorf("membership: freeze %q: %w", mem.Group(), err)
		}
		if !info.WasFrozen {
			frozeNow = append(frozeNow, mem)
		}
		if info.Highest > watermark {
			watermark = info.Highest
		}
		if info.Epoch > maxEpoch {
			maxEpoch = info.Epoch
		}
		if info.Epoch > cur.Epoch {
			ahead = append(ahead, fmt.Sprintf("%s (epoch %d)", mem.Group(), info.Epoch))
		}
	}
	if len(ahead) > 0 {
		restore()
		return fmt.Errorf("membership: controller view %d is stale — members ahead: %s; drive the change from the highest-epoch frontend",
			cur.Epoch, strings.Join(ahead, ", "))
	}
	next.Epoch = maxEpoch + 1
	next.Watermark = watermark

	for i, mem := range members {
		if err := mem.Advance(*next, nextURLs); err != nil {
			for _, adv := range members[:i] {
				_ = adv.Resume()
			}
			var frozen []string
			for _, rest := range members[i:] {
				frozen = append(frozen, rest.Group())
			}
			return fmt.Errorf("membership: advance %q to view %d: %w — groups %s stay frozen (unavailable, not colliding); re-run the change, or POST %s on an advanced frontend once the fault clears",
				mem.Group(), next.Epoch, err, strings.Join(frozen, ", "), PathRepair)
		}
	}
	for _, mem := range members {
		_ = mem.Resume()
	}
	return nil
}

// Member endpoint paths (mounted by the frontend's HTTP server behind
// its owner guard) and admin paths.
const (
	PathFreeze  = "/v1/membership/freeze"
	PathAdvance = "/v1/membership/advance"
	PathResume  = "/v1/membership/resume"
	PathRelease = "/v1/membership/release"
	PathAdopt   = "/v1/membership/adopt"
	PathView    = "/v1/membership/view"
	PathJoin    = "/v1/admin/join"
	PathDrain   = "/v1/admin/drain"
	PathRepair  = "/v1/admin/repair"
)

// wire payloads for the member and admin endpoints (Freeze responds
// with a bare FreezeInfo).
type (
	wireAdvanceReq struct {
		View ring.View         `json:"view"`
		URLs map[string]string `json:"urls"`
	}
	wireRangesResp struct {
		Ranges []store.IndexRange `json:"ranges"`
	}
	wireAdoptReq struct {
		Ranges []store.IndexRange `json:"ranges"`
	}
	wireJoinReq struct {
		Group string `json:"group"`
		URL   string `json:"url"`
	}
	wireDrainReq struct {
		Group string `json:"group"`
	}
)

// maxBodyBytes caps a member or admin request body.
const maxBodyBytes = 1 << 20

// Handler returns the member + admin endpoints. Mount it behind the
// frontend's owner-token guard: every route mutates issuance state.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	self := local{m}
	mux.HandleFunc("POST "+PathFreeze, func(w http.ResponseWriter, r *http.Request) {
		info, err := self.Freeze()
		respond(w, info, err)
	})
	mux.HandleFunc("POST "+PathAdvance, func(w http.ResponseWriter, r *http.Request) {
		var req wireAdvanceReq
		if rpc.Decode(w, r, maxBodyBytes, &req) {
			respond(w, struct{}{}, self.Advance(req.View, req.URLs))
		}
	})
	mux.HandleFunc("POST "+PathResume, func(w http.ResponseWriter, r *http.Request) {
		respond(w, struct{}{}, self.Resume())
	})
	mux.HandleFunc("POST "+PathRelease, func(w http.ResponseWriter, r *http.Request) {
		ranges, err := self.ReleaseLeases()
		respond(w, wireRangesResp{Ranges: ranges}, err)
	})
	mux.HandleFunc("POST "+PathAdopt, func(w http.ResponseWriter, r *http.Request) {
		var req wireAdoptReq
		if rpc.Decode(w, r, maxBodyBytes, &req) {
			respond(w, struct{}{}, self.AdoptLeases(req.Ranges))
		}
	})
	mux.HandleFunc("GET "+PathView, func(w http.ResponseWriter, r *http.Request) {
		respond(w, m.State(), nil)
	})
	mux.HandleFunc("POST "+PathJoin, func(w http.ResponseWriter, r *http.Request) {
		var req wireJoinReq
		if rpc.Decode(w, r, maxBodyBytes, &req) {
			res, err := m.Join(req.Group, req.URL)
			respond(w, res, err)
		}
	})
	mux.HandleFunc("POST "+PathDrain, func(w http.ResponseWriter, r *http.Request) {
		var req wireDrainReq
		if rpc.Decode(w, r, maxBodyBytes, &req) {
			res, err := m.Drain(req.Group)
			respond(w, res, err)
		}
	})
	mux.HandleFunc("POST "+PathRepair, func(w http.ResponseWriter, r *http.Request) {
		res, err := m.Repair()
		respond(w, res, err)
	})
	return mux
}

// respond answers a member or admin call: v, or the operation's error
// as a 409.
func respond(w http.ResponseWriter, v any, err error) {
	if err != nil {
		rpc.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	rpc.WriteJSON(w, http.StatusOK, v)
}
