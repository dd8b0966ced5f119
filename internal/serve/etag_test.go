package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"truthdiscovery/internal/store"
)

// condGet issues a GET with an optional If-None-Match and returns the
// response (caller closes the body).
func condGet(t *testing.T, ts *httptest.Server, path, ifNoneMatch string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestETagConditionalRequests covers the caching contract end to end:
// stable strong ETags on identical views, 304 on every If-None-Match
// form RFC 9110 allows (exact, weak-prefixed, list member, wildcard),
// Cache-Control on cacheable endpoints, and rotation after a refresh
// swap makes the same conditional GET return a fresh 200.
func TestETagConditionalRequests(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "AccuPr", true)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The ETag is strong, version-keyed, and stable across identical GETs
	// on every cacheable endpoint.
	var etag string
	for _, path := range []string{"/v1/answers", "/v1/answers/obj00", "/v1/trust"} {
		resp := condGet(t, ts, path, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("ETag")
		if got == "" || got[0] == 'W' {
			t.Fatalf("%s: ETag %q, want a strong tag", path, got)
		}
		if etag == "" {
			etag = got
		} else if got != etag {
			t.Fatalf("%s: ETag %q differs from %q on the same version", path, got, etag)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
			t.Fatalf("%s: Cache-Control %q, want no-cache", path, cc)
		}
	}
	resp := condGet(t, ts, "/v1/answers", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("repeat GET: ETag %q, want stable %q", got, etag)
	}

	// Every acceptable If-None-Match form revalidates to an empty 304
	// that still carries the tag.
	for _, inm := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		resp := condGet(t, ts, "/v1/answers", inm)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried a %d-byte body", inm, len(body))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("If-None-Match %q: 304 ETag %q, want %q", inm, got, etag)
		}
	}
	// A stale tag misses and gets the full body.
	resp = condGet(t, ts, "/v1/answers", `"run-ffff"`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", resp.StatusCode)
	}

	// The refresh swap rotates the cache key: the old tag now misses, and
	// the new tag is a different strong tag that revalidates.
	if _, _, err := r.Apply(w.delta); err != nil {
		t.Fatal(err)
	}
	resp = condGet(t, ts, "/v1/answers", etag)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap GET with old tag: status %d, want 200", resp.StatusCode)
	}
	fresh := resp.Header.Get("ETag")
	if fresh == "" || fresh == etag {
		t.Fatalf("post-swap ETag %q did not rotate from %q", fresh, etag)
	}
	resp = condGet(t, ts, "/v1/answers", fresh)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("post-swap revalidation: status %d, want 304", resp.StatusCode)
	}

	// The 304s were counted for /stats.
	var stats map[string]any
	getJSON(t, ts, "/v1/stats", http.StatusOK, &stats)
	if nm, _ := stats["not_modified"].(float64); nm < 5 {
		t.Fatalf("stats not_modified = %v, want >= 5", nm)
	}
}

// TestETagMatchesStoreVersion pins the tag format to the store's version
// key, for both store-backed and memory-only refreshers.
func TestETagMatchesStoreVersion(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		w := buildWorld(t)
		r, srv := newRefresher(t, w, "Vote", withStore)
		v, err := r.Publish()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := srv.View().ETag(), store.ETag(v.Version); got != want {
			t.Fatalf("withStore=%v: ETag %q, want %q", withStore, got, want)
		}
	}
}

// TestConcurrentReadersNeverSeeTornETag hammers the answers endpoints
// while the writer republishes new versions, asserting every response's
// ETag matches the version in its own body — the pair must come from one
// view, never a tag from one swap and a body from another, whether the
// table body is rendered by the read or stored by an earlier one. Run
// under -race this also proves the etag field and the stored table need
// no lock.
func TestConcurrentReadersNeverSeeTornETag(t *testing.T) {
	w := buildWorld(t)
	r, srv := newRefresher(t, w, "Vote", false)
	if _, err := r.Publish(); err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := "/v1/answers"
				if i%4 == 3 {
					path = "/v1/answers/obj00"
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: GET %s: status %d", g, path, rec.Code)
					return
				}
				var body struct {
					Version uint64 `json:"version"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					errs <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if got, want := rec.Header().Get("ETag"), store.ETag(body.Version); got != want {
					errs <- fmt.Errorf("reader %d: GET %s: torn pair: ETag %q with body version %d (want %q)",
						g, path, got, body.Version, want)
					return
				}
				if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
					errs <- fmt.Errorf("reader %d: GET %s: Content-Length %s for a %s-byte body", g, path, got, want)
					return
				}
			}
		}(g)
	}
	// The writer: 50 republications, each a new version and a new ETag.
	for i := 0; i < 50; i++ {
		if _, err := r.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
