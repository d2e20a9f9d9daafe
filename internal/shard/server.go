package shard

import (
	"net/http"

	"qirana"
	"qirana/internal/httpapi"
)

// Register mounts the shard worker routes on an existing mux (qiranad
// -shard adds them to its httpapi server, so /v1/stats, /v1/metrics and
// /v1/healthz ride along):
//
//	POST /v1/shard/sweep  sweep this shard's slice; body is a
//	                      qirana.SweepSliceRequest
//	GET  /v1/shard/info   support-set identity (gen, checksum, size)
func Register(mux *http.ServeMux, b *qirana.Broker) {
	sweep := func(w http.ResponseWriter, r *http.Request) {
		var req qirana.SweepSliceRequest
		if !httpapi.DecodeBody(w, r, &req) {
			return
		}
		resp, err := b.SweepSlice(r.Context(), req)
		if err != nil {
			httpapi.WriteRequestError(w, err)
			return
		}
		httpapi.WriteJSON(w, resp)
	}
	info := func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, Info{
			SupportGen: b.SupportGen(),
			SupportSum: b.SupportChecksum(),
			Size:       b.SupportSetSize(),
		})
	}
	mux.HandleFunc("POST /v1/shard/sweep", sweep)
	mux.HandleFunc("GET /v1/shard/info", info)
}

// Handler serves a standalone shard worker: the shard routes plus
// /v1/healthz (the in-process cluster harness uses it; qiranad -shard
// mounts Register on its full httpapi mux instead).
func Handler(b *qirana.Broker) http.Handler {
	mux := http.NewServeMux()
	Register(mux, b)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, map[string]any{"ok": true, "support_gen": b.SupportGen()})
	})
	return mux
}
