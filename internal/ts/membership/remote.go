package membership

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/rpc"
	"repro/internal/store"
	"repro/internal/ts/ring"
)

// Remote is the HTTP Member implementation: the controller's handle on
// another frontend's membership endpoints.
type Remote struct {
	// GroupName is the remote frontend's replica group.
	GroupName string
	// Base is the remote frontend's base URL (e.g. "http://10.0.0.2:8546").
	Base string
	// OwnerToken, when set, authenticates member calls (the remote's
	// /v1/membership routes sit behind its owner guard).
	OwnerToken string
}

// DefaultMemberTimeout bounds one member control call: member calls are
// tiny control-plane round-trips, and a hung member must not stall a
// view change forever.
const DefaultMemberTimeout = 5 * time.Second

// memberHTTP is the connection pool every Remote shares.
var memberHTTP = rpc.NewHTTPClient()

func (r *Remote) Group() string { return r.GroupName }

func (r *Remote) Freeze() (FreezeInfo, error) {
	var resp FreezeInfo
	if err := r.post(PathFreeze, struct{}{}, &resp); err != nil {
		return FreezeInfo{}, err
	}
	return resp, nil
}

func (r *Remote) Advance(v ring.View, urls map[string]string) error {
	return r.post(PathAdvance, wireAdvanceReq{View: v, URLs: urls}, nil)
}

func (r *Remote) Resume() error {
	return r.post(PathResume, struct{}{}, nil)
}

func (r *Remote) ReleaseLeases() ([]store.IndexRange, error) {
	var resp wireRangesResp
	if err := r.post(PathRelease, struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Ranges, nil
}

func (r *Remote) AdoptLeases(ranges []store.IndexRange) error {
	return r.post(PathAdopt, wireAdoptReq{Ranges: ranges}, nil)
}

func (r *Remote) post(path string, body, out any) error {
	c := rpc.Client{Base: r.Base, HTTP: memberHTTP, Bearer: r.OwnerToken, Timeout: DefaultMemberTimeout}
	return c.Call(fmt.Sprintf("membership: %s %s%s", r.GroupName, r.Base, path), http.MethodPost, path, body, out)
}
