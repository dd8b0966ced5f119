package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
)

// PeerClient drives one worker's control plane over HTTP. It implements
// fusion.DistPeer, so the coordinator hands its clients straight to
// fusion.DistRun. The address is swappable: a respawned worker comes
// back on a new port and SetAddr re-points the client without touching
// the rest of the fleet.
type PeerClient struct {
	hc *http.Client

	mu   sync.RWMutex
	addr string
}

var _ fusion.DistPeer = (*PeerClient)(nil)

// NewPeerClient points a client at a worker's base URL
// (e.g. "http://127.0.0.1:7101").
func NewPeerClient(addr string) *PeerClient {
	return &PeerClient{
		hc:   &http.Client{Timeout: 60 * time.Second},
		addr: addr,
	}
}

// SetAddr re-points the client (worker respawn).
func (c *PeerClient) SetAddr(addr string) {
	c.mu.Lock()
	c.addr = addr
	c.mu.Unlock()
}

// Addr returns the worker's current base URL.
func (c *PeerClient) Addr() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.addr
}

// call POSTs one JSON request and decodes the JSON response; a non-200
// status surfaces the worker's rpcError body.
func (c *PeerClient) call(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: encoding %s request: %w", path, err)
	}
	resp, err := c.hc.Post(c.Addr()+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var re rpcError
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &re) == nil && re.Error != "" {
			return fmt.Errorf("dist: %s: worker says: %s", path, re.Error)
		}
		return fmt.Errorf("dist: %s: worker answered %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Describe fetches the worker's self-description.
func (c *PeerClient) Describe() (*describeResponse, error) {
	var desc describeResponse
	if err := c.call("/rpc/describe", struct{}{}, &desc); err != nil {
		return nil, err
	}
	return &desc, nil
}

// Init arms the worker for a run under the global claim counts and the
// result-shaping option knobs.
func (c *PeerClient) Init(cps []int, opts fusion.Options) error {
	return c.call("/rpc/init", initRequest{
		CPS:       cps,
		MaxRounds: opts.MaxRounds,
		Epsilon:   opts.Epsilon,
		NFalse:    opts.NFalse,
		SimWeight: opts.SimWeight,
	}, nil)
}

// Phase implements fusion.DistPeer.
func (c *PeerClient) Phase(step int, trust []float64, byKey [][]float64) error {
	return c.call("/rpc/phase", phaseRequest{Step: step, Trust: trust, ByKey: byKey}, nil)
}

// MinMax implements fusion.DistPeer.
func (c *PeerClient) MinMax(space int) (float64, float64, error) {
	var resp minmaxResponse
	if err := c.call("/rpc/minmax", minmaxRequest{Space: space}, &resp); err != nil {
		return 0, 0, err
	}
	if resp.Empty {
		return math.Inf(1), math.Inf(-1), nil
	}
	return resp.Lo, resp.Hi, nil
}

// Rescale implements fusion.DistPeer.
func (c *PeerClient) Rescale(space int, lo, hi float64) error {
	return c.call("/rpc/rescale", rescaleRequest{Space: space, Lo: lo, Hi: hi}, nil)
}

// Fold implements fusion.DistPeer.
func (c *PeerClient) Fold(fold int, trust []float64, byKey [][]float64, acc [][]float64) ([][]float64, error) {
	var resp foldResponse
	if err := c.call("/rpc/fold", foldRequest{Fold: fold, Trust: trust, ByKey: byKey, Acc: acc}, &resp); err != nil {
		return nil, err
	}
	return resp.Acc, nil
}

// Apply advances the worker's owned shards by their split-delta slice.
func (c *PeerClient) Apply(deltas []*model.Delta) (*applyResponse, error) {
	var resp applyResponse
	if err := c.call("/rpc/apply", applyRequest{Deltas: deltas}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Publish materializes a finished run on the worker.
func (c *PeerClient) Publish(req *publishRequest) error {
	var resp publishResponse
	return c.call("/rpc/publish", req, &resp)
}
