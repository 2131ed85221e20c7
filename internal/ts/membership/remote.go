package membership

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/ts"
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

var memberClient = &http.Client{Timeout: DefaultMemberTimeout}

func (r *Remote) Group() string { return r.GroupName }

func (r *Remote) Freeze() (FreezeInfo, error) {
	var resp FreezeInfo
	if err := r.post(PathFreeze, struct{}{}, &resp); err != nil {
		return FreezeInfo{}, err
	}
	return resp, nil
}

func (r *Remote) Advance(v ring.View, urls map[string]string) error {
	return r.post(PathAdvance, wireAdvanceReq{View: v, URLs: urls}, &struct{}{})
}

func (r *Remote) Resume() error {
	return r.post(PathResume, struct{}{}, &struct{}{})
}

func (r *Remote) ReleaseLeases() ([]ts.IndexRange, error) {
	var resp wireRangesResp
	if err := r.post(PathRelease, struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Ranges, nil
}

func (r *Remote) AdoptLeases(ranges []ts.IndexRange) error {
	return r.post(PathAdopt, wireAdoptReq{Ranges: ranges}, &struct{}{})
}

// FetchState reads the remote frontend's current membership state — the
// bootstrap call a joining frontend can use to discover the cluster's
// view before asking to join.
func (r *Remote) FetchState() (State, error) {
	req, err := http.NewRequest(http.MethodGet, r.Base+PathView, nil)
	if err != nil {
		return State{}, err
	}
	r.auth(req)
	var st State
	if err := doJSON(req, &st); err != nil {
		return State{}, fmt.Errorf("membership: fetch view from %s: %w", r.Base, err)
	}
	return st, nil
}

func (r *Remote) auth(req *http.Request) {
	if r.OwnerToken != "" {
		req.Header.Set("Authorization", "Bearer "+r.OwnerToken)
	}
}

func (r *Remote) post(path string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, r.Base+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	r.auth(req)
	if err := doJSON(req, out); err != nil {
		return fmt.Errorf("membership: %s %s%s: %w", r.GroupName, r.Base, path, err)
	}
	return nil
}

func doJSON(req *http.Request, out any) error {
	resp, err := memberClient.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var we wireError
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&we) == nil && we.Error != "" {
			return fmt.Errorf("status %d: %s", resp.StatusCode, we.Error)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
