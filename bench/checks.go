package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"

	td "truthdiscovery"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
)

// The correctness checks. Each compares what the system served against an
// independent computation, bit for bit.

// checkCold compares the served view with a cold Build + Run + AnswersFor
// of the snapshot the engine reflects.
func checkCold(s *system, snap *model.Snapshot) error {
	m, _ := fusion.ByName(s.w.method)
	p := fusion.Build(s.w.ds, snap, nil, m.Needs())
	res := m.Run(p, fusion.Options{})
	v := s.srv.View()
	if err := sameAnswers(v.Answers, fusion.AnswersFor(s.w.ds, p, res)); err != nil {
		return fmt.Errorf("served answers differ from a cold fuse of day %d: %w", snap.Day, err)
	}
	if err := sameResult(v.Trust, v.AttrTrust, res.Trust, res.AttrTrust); err != nil {
		return fmt.Errorf("served trust differs from a cold fuse of day %d: %w", snap.Day, err)
	}
	return nil
}

// checkStore loads the store's CURRENT run and compares it with the
// served view.
func checkStore(s *system) error {
	if s.st == nil {
		return nil
	}
	run, err := s.st.LoadCurrent()
	if err != nil {
		return err
	}
	v := s.srv.View()
	if run == nil || run.Version != v.Version {
		return fmt.Errorf("store CURRENT is not the served version %d", v.Version)
	}
	if err := sameAnswers(run.Answers, v.Answers); err != nil {
		return fmt.Errorf("store CURRENT answers: %w", err)
	}
	if err := sameResult(run.Trust, run.AttrTrust, v.Trust, v.AttrTrust); err != nil {
		return fmt.Errorf("store CURRENT trust: %w", err)
	}
	if err := sameRows(run.Posteriors, v.Posteriors); err != nil {
		return fmt.Errorf("store CURRENT posteriors: %w", err)
	}
	return nil
}

// checkIngest compares the served view with the public Fuse of the
// snapshot the ingester has built from every flushed write.
func checkIngest(s *system) error {
	answers, err := td.Fuse(s.w.ds, s.ing.Base(), s.w.method, td.FuseOptions{})
	if err != nil {
		return err
	}
	if err := sameAnswers(s.srv.View().Answers, answers); err != nil {
		return fmt.Errorf("served answers differ from Fuse of the ingested snapshot: %w", err)
	}
	return nil
}

// checkRouted compares the routed full table with the flat one, byte for
// byte.
func checkRouted(flatURL, routedURL string) error {
	flat, err := getBody(flatURL + "/v1/answers")
	if err != nil {
		return err
	}
	routed, err := getBody(routedURL + "/v1/answers")
	if err != nil {
		return err
	}
	if !bytes.Equal(flat, routed) {
		return fmt.Errorf("routed full table (%d bytes) differs from the flat one (%d bytes)", len(routed), len(flat))
	}
	return nil
}

func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// pointJSON is the wire form of a point response.
type pointJSON struct {
	Version uint64 `json:"version"`
	Answers []struct {
		Object    string  `json:"object"`
		Attribute string  `json:"attribute"`
		Value     string  `json:"value"`
		Kind      string  `json:"kind"`
		Num       float64 `json:"num"`
		Gran      float64 `json:"gran"`
		Text      string  `json:"text"`
		Support   int     `json:"support"`
		Providers int     `json:"providers"`
	} `json:"answers"`
}

// checkPoint decodes a point response for object key and compares it with
// the view that served it.
func checkPoint(v *serve.View, key string, body []byte) error {
	var got pointJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("point response for %s: %w", key, err)
	}
	idx := v.ObjectAnswers(key)
	if got.Version != v.Version || len(got.Answers) != len(idx) {
		return fmt.Errorf("point response for %s: version %d with %d answers, view has version %d with %d",
			key, got.Version, len(got.Answers), v.Version, len(idx))
	}
	for i, ai := range idx {
		a, g := &v.Answers[ai], &got.Answers[i]
		if g.Object != a.ObjectKey || g.Attribute != a.Attribute || g.Value != a.Value.String() ||
			g.Kind != a.Value.Kind.String() || !sameFloat(g.Num, a.Value.Num) || !sameFloat(g.Gran, a.Value.Gran) ||
			g.Text != a.Value.Text || g.Support != a.Support || g.Providers != a.Providers {
			return fmt.Errorf("point response for %s: answer %d is %+v, view has %+v", key, i, *g, *a)
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameAnswers(a, b []fusion.Answer) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d answers against %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Item != y.Item || x.ObjectKey != y.ObjectKey || x.Attribute != y.Attribute ||
			x.Value.Kind != y.Value.Kind || !sameFloat(x.Value.Num, y.Value.Num) ||
			!sameFloat(x.Value.Gran, y.Value.Gran) || x.Value.Text != y.Value.Text ||
			x.Support != y.Support || x.Providers != y.Providers {
			return fmt.Errorf("answer %d: %+v against %+v", i, x, y)
		}
	}
	return nil
}

func sameResult(trustA []float64, attrA [][]float64, trustB []float64, attrB [][]float64) error {
	if err := sameRows([][]float64{trustA}, [][]float64{trustB}); err != nil {
		return err
	}
	return sameRows(attrA, attrB)
}

func sameRows(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows against %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d values against %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameFloat(a[i][j], b[i][j]) {
				return fmt.Errorf("row %d value %d: %v against %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
