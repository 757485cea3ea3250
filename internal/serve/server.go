package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve/wire"
)

// marshalBody renders a response struct as the canonical body bytes:
// indented JSON with a trailing newline, byte-stable for identical
// contents (struct field order is fixed; no maps are marshaled).
func marshalBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, fmt.Errorf("serve: encoding response: %w", err)
	}
	return buf.Bytes(), nil
}

// Handler returns the engine's HTTP API:
//
//	POST /v1/solve    one cell's operating point
//	POST /v1/measure  one cell solved and measured (power report row)
//	POST /v1/sweep    a whole (apps x archs) grid
//	GET  /v1/healthz  liveness + loaded scenarios
//	GET  /v1/metrics  metrics registry (JSON; ?format=text for stats lines)
//
// Request bodies are strict JSON: exactly one object, unknown fields
// rejected (a typoed knob must not silently fall back), nothing after it,
// and at most maxBodyBytes. Solve/measure/sweep bodies are deterministic:
// byte-identical for identical requests at any concurrency.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		e.reg.Add("serve.requests.solve", 1)
		handleBody(e, w, r, func(req wireSolve) ([]byte, bool, error) { return e.Solve(req) })
	})
	mux.HandleFunc("/v1/measure", func(w http.ResponseWriter, r *http.Request) {
		e.reg.Add("serve.requests.measure", 1)
		handleBody(e, w, r, func(req wireSolve) ([]byte, bool, error) { return e.Measure(req) })
	})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		e.reg.Add("serve.requests.sweep", 1)
		handleBody(e, w, r, func(req wireSweep) ([]byte, bool, error) { return e.Sweep(req) })
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		e.reg.Add("serve.requests.healthz", 1)
		body, err := marshalBody(struct {
			Status    string   `json:"status"`
			Scenarios []string `json:"scenarios"`
			Store     bool     `json:"store"`
		}{Status: "ok", Scenarios: e.Scenarios(), Store: e.store != nil})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		e.reg.Add("serve.requests.metrics", 1)
		reg := e.PublishMetrics()
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := reg.WriteText(w, "stats "); err != nil {
				writeError(w, http.StatusInternalServerError, err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			writeError(w, http.StatusInternalServerError, err)
		}
	})
	return mux
}

// wireSolve and wireSweep keep the generic handler readable.
type (
	wireSolve = wire.SolveRequest
	wireSweep = wire.SweepRequest
)

// maxBodyBytes caps a request body. The largest legitimate body, a sweep
// listing every app and a few structural arch specs, is under a kilobyte.
const maxBodyBytes = 1 << 20

// handleBody decodes a strict-JSON POST body, runs the endpoint and writes
// the deterministic response bytes. Malformed bodies and resolution
// failures are the client's (400, or 413 for an oversized body); simulation
// failures are reported as 422 (the request was well-formed, the
// configured cell cannot meet real time or faulted).
func handleBody[Req any](e *Engine, w http.ResponseWriter, r *http.Request, run func(Req) ([]byte, bool, error)) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST with a JSON body"))
		return
	}
	req, err := decodeStrict[Req](http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	body, shared, err := run(req)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if body == nil && isResolveError(err) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	if shared {
		// Advisory only (headers are not part of the determinism
		// contract, bodies are): this response rode another request's
		// simulation.
		w.Header().Set("X-Coalesced", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// decodeStrict decodes exactly one JSON object from r: unknown fields are
// rejected, and so is anything but whitespace after the object (a second
// object or stray text would otherwise be silently ignored).
func decodeStrict[Req any](r io.Reader) (Req, error) {
	var req Req
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return req, err
		}
		return req, errors.New("unexpected data after the JSON object")
	}
	return req, nil
}

// resolveError marks request-resolution failures so the HTTP layer can
// classify them as 400s without string matching.
type resolveError struct{ err error }

func (e *resolveError) Error() string { return e.err.Error() }
func (e *resolveError) Unwrap() error { return e.err }

func isResolveError(err error) bool {
	_, ok := err.(*resolveError)
	return ok
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
