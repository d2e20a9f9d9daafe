package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qirana"
	"qirana/internal/failpoint"
	"qirana/internal/httpapi"
)

// TestOnlyV1RoutesAnswer: a shard worker's mux (the broker API plus the
// shard routes, as qiranad -shard mounts them) and the standalone
// Handler answer every endpoint under /v1/ and nothing at the bare path.
func TestOnlyV1RoutesAnswer(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	api := httpapi.New(b, 10*time.Second)
	Register(api.Mux(), b)
	worker := httptest.NewServer(api)
	defer worker.Close()
	standalone := httptest.NewServer(Handler(b))
	defer standalone.Close()

	do := func(base, method, path string) int {
		t.Helper()
		body := ""
		if method == http.MethodPost {
			body = `{}`
		}
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		base, method, path string
	}{
		{worker.URL, http.MethodPost, "/quote"},
		{worker.URL, http.MethodPost, "/quote/batch"},
		{worker.URL, http.MethodPost, "/ask"},
		{worker.URL, http.MethodPost, "/prepare"},
		{worker.URL, http.MethodGet, "/stats"},
		{worker.URL, http.MethodGet, "/metrics"},
		{worker.URL, http.MethodGet, "/healthz"},
		{worker.URL, http.MethodPost, "/shard/sweep"},
		{worker.URL, http.MethodGet, "/shard/info"},
		{standalone.URL, http.MethodGet, "/healthz"},
		{standalone.URL, http.MethodPost, "/shard/sweep"},
		{standalone.URL, http.MethodGet, "/shard/info"},
	} {
		if got := do(c.base, c.method, c.path); got != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, got)
		}
		// The /v1/ route answers: a GET with 200, a POST of an empty
		// body with its handler's own verdict, never the mux's 404/405.
		got := do(c.base, c.method, "/v1"+c.path)
		if got == http.StatusNotFound || got == http.StatusMethodNotAllowed ||
			(c.method == http.MethodGet && got != http.StatusOK) {
			t.Errorf("%s /v1%s: status %d, want the route to answer", c.method, c.path, got)
		}
	}
}

// TestChaosErrorReachesShardUnavailable: the chaos proxy's injected 500
// is a typed error envelope, so the router's ErrShardUnavailable carries
// its message rather than the raw JSON body.
func TestChaosErrorReachesShardUnavailable(t *testing.T) {
	fake := newFakeShard(t, 32)
	proxy := NewChaosProxy(fake.srv.Config.Handler, ChaosConfig{Name: "chaos/typed"})
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	f, err := Connect(context.Background(), []string{srv.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := noHedge(DefaultFaultPolicy())
	p.MaxAttempts = 1
	f.SetPolicy(p)

	defer failpoint.Reset()
	failpoint.Enable(proxy.Failpoint(ChaosErr), nil)
	_, _, err = f.SweepBits(context.Background(), []string{"q"}, testSpec())
	if !errors.Is(err, qirana.ErrShardUnavailable) {
		t.Fatalf("injected 500: err = %v, want ErrShardUnavailable", err)
	}
	if msg := err.Error(); !strings.HasSuffix(msg, ": chaos: injected shard failure") || strings.Contains(msg, "{") {
		t.Fatalf("injected 500 surfaced as %q, want the envelope's message", msg)
	}
	if proxy.Faults() != 1 {
		t.Fatalf("proxy injected %d faults, want 1", proxy.Faults())
	}
}
