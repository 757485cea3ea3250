package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newEngine(t, serve.Config{Jobs: 1}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		name, path, body string
		status           int
		want             string
	}{
		{"unknown field", "/v1/solve", `{"app":"3l-mf","arch":"sc","probe_seconds":1}`, http.StatusBadRequest, "unknown field"},
		{"malformed json", "/v1/solve", `{"app":`, http.StatusBadRequest, "decoding request"},
		{"unknown scenario", "/v1/solve", `{"scenario":"nope","app":"3l-mf","arch":"sc"}`, http.StatusBadRequest, "unknown scenario"},
		{"unknown app", "/v1/measure", `{"app":"4l-mf","arch":"sc"}`, http.StatusBadRequest, "unknown app"},
		{"bad arch", "/v1/solve", `{"app":"3l-mf","arch":"quad"}`, http.StatusBadRequest, ""},
		{"sweep unknown app", "/v1/sweep", `{"apps":["bogus"]}`, http.StatusBadRequest, "unknown app"},
		{"trailing text", "/v1/solve", `{"app":"3l-mf","arch":"sc"} trailing`, http.StatusBadRequest, "unexpected data after the JSON object"},
		{"two objects", "/v1/measure", `{"app":"3l-mf","arch":"sc"}{"app":"3l-mf","arch":"mc"}`, http.StatusBadRequest, "unexpected data after the JSON object"},
		{"stray closer", "/v1/sweep", `{"apps":["3l-mf"]}}`, http.StatusBadRequest, "unexpected data after the JSON object"},
		// Trailing whitespace is not data: this body decodes and fails
		// resolution instead.
		{"trailing whitespace", "/v1/solve", "{\"app\":\"4l-mf\",\"arch\":\"sc\"} \n\t", http.StatusBadRequest, "unknown app"},
		{"oversized body", "/v1/solve", `{"scenario":"` + strings.Repeat("x", 1<<20) + `","app":"3l-mf","arch":"sc"}`, http.StatusRequestEntityTooLarge, "1048576-byte"},
		{"duration too long", "/v1/measure", `{"app":"3l-mf","arch":"sc","duration_s":1e6}`, http.StatusBadRequest, "600-s limit"},
		{"probe too long", "/v1/sweep", `{"apps":["3l-mf"],"probe_s":601}`, http.StatusBadRequest, "600-s limit"},
	}
	for _, tc := range cases {
		resp, body := post(t, srv, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not an ErrorResponse (%v)", tc.name, body, err)
			continue
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q lacks %q", tc.name, e.Error, tc.want)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/solve: status %d, want 405", resp.StatusCode)
	}
}

// TestHandlerBoundsRequestStrings: an oversized request string is rejected
// by name before any error message can quote it, so the 400 stays small
// whatever the client sent (a body just under the 1-MiB cap used to come
// back whole).
func TestHandlerBoundsRequestStrings(t *testing.T) {
	srv := newTestServer(t)
	long := strings.Repeat("x", 900000)
	cases := []struct{ field, path, body string }{
		{"scenario", "/v1/solve", `{"scenario":"` + long + `","app":"3l-mf","arch":"sc"}`},
		{"app", "/v1/measure", `{"app":"` + long + `","arch":"sc"}`},
		{"arch", "/v1/solve", `{"app":"3l-mf","arch":"` + long + `"}`},
		{"scenario", "/v1/sweep", `{"scenario":"` + long + `"}`},
		{"apps[1]", "/v1/sweep", `{"apps":["3l-mf","` + long + `"]}`},
		{"archs[0]", "/v1/sweep", `{"archs":["` + long + `"]}`},
	}
	for _, tc := range cases {
		resp, body := post(t, srv, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || len(body) >= 1024 {
			t.Errorf("%s %s: status %d with a %d-byte body, want 400 under 1 KiB", tc.path, tc.field, resp.StatusCode, len(body))
			continue
		}
		if want := tc.field + " is 900000 bytes, over the 256-byte limit"; !strings.Contains(string(body), want) {
			t.Errorf("%s %s: body %s lacks %q", tc.path, tc.field, body, want)
		}
	}
}

// TestHandlerBoundsSweepGrid: a sweep lists each app and sync-unit
// descriptor once, and at most 16 descriptors. A body that repeats an entry
// (a descriptor by its key, whatever its spelling) or lists more gets a 400
// under 1 KiB naming the entry and the rule, before any record is
// synthesized (a 45-KB body repeating one app used to buy a 2.9-MB grid).
func TestHandlerBoundsSweepGrid(t *testing.T) {
	e := newEngine(t, serve.Config{Jobs: 1})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	list := func(n int, entry func(i int) string) string {
		out := make([]string, n)
		for i := range out {
			out[i] = `"` + entry(i) + `"`
		}
		return "[" + strings.Join(out, ",") + "]"
	}
	cases := []struct{ body, want string }{
		{`{"apps":` + list(5000, func(int) string { return "3l-mf" }) + `,"archs":["sc"],"duration_s":0.4,"probe_s":0.3}`,
			"apps[1] repeats apps[0]: list each app once"},
		{`{"apps":["3l-mf"],"archs":["mc","sc","multi"]}`,
			"archs[2] repeats archs[0]: list each sync-unit descriptor once"},
		{`{"apps":["3l-mf"],"archs":` + list(17, func(i int) string { return fmt.Sprintf("multi,timeout=%d", i+1) }) + `}`,
			"archs has 17 entries, over the 16-entry limit"},
	}
	for _, tc := range cases {
		resp, body := post(t, srv, "/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest || len(body) >= 1024 {
			t.Errorf("status %d with a %d-byte body, want 400 under 1 KiB (%s)", resp.StatusCode, len(body), body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("body %s lacks %q", body, tc.want)
		}
	}
	if n := e.PublishMetrics().Counter("signal.cache.requests"); n != 0 {
		t.Errorf("rejected sweeps requested %d signal records, want 0", n)
	}
}

// TestHandlerRejectsHugeTimeout: a sync-unit timeout above
// power.MaxTimeoutCycles gets a 400 naming the limit, from /v1/solve and
// /v1/sweep alike, and the server keeps answering. Such a timeout used to
// wrap the sync unit's deadline and panic mid-simulation; on /v1/sweep the
// panic hit a sweep worker goroutine and ended the whole process.
func TestHandlerRejectsHugeTimeout(t *testing.T) {
	srv := newTestServer(t)
	const arch = "multi,timeout=18446744073709551615"
	cases := []struct{ path, body string }{
		{"/v1/solve", `{"app":"3l-mf","arch":"` + arch + `","duration_s":0.4,"probe_s":0.3}`},
		{"/v1/sweep", `{"apps":["3l-mf"],"archs":["` + arch + `"],"duration_s":0.4,"probe_s":0.3}`},
	}
	for _, tc := range cases {
		resp, body := post(t, srv, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest || len(body) >= 1024 {
			t.Errorf("%s: status %d with a %d-byte body, want 400 under 1 KiB (%s)", tc.path, resp.StatusCode, len(body), body)
			continue
		}
		if want := "exceeds the limit of 1099511627776 cycles"; !strings.Contains(string(body), want) {
			t.Errorf("%s: body %s lacks %q", tc.path, body, want)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the rejected requests: status %d, want 200", resp.StatusCode)
	}
}

func TestHealthzListsScenarios(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status    string   `json:"status"`
		Scenarios []string `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
	found := false
	for _, n := range h.Scenarios {
		found = found || n == "ecg-default"
	}
	if !found {
		t.Fatalf("healthz scenarios %v lack ecg-default", h.Scenarios)
	}
}

func TestMetricsEndpointFormats(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Counters["serve.coalesce.started"]; !ok {
		t.Fatalf("metrics JSON lacks serve.coalesce.started: %v", doc.Counters)
	}

	resp, err = http.Get(srv.URL + "/v1/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stats serve.requests.metrics") {
		t.Fatalf("text metrics lack the stats prefix lines:\n%s", buf.String())
	}
}
