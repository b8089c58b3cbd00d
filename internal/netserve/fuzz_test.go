package netserve

import (
	"bytes"
	"net/http"
	"testing"

	"reramtest/internal/wire"
	"reramtest/internal/wire/wiretest"
)

// FuzzInferRequest throws arbitrary bodies and deadline headers at the
// handler. The oracle: the status is one of the closed set and never 500;
// the admission and terminal identities hold after every input; whatever
// the strict decoder accepts, encoding/json accepts too, with the same
// tenant, priority and bit-identical floats; and a batch a longer request
// left full of NaN decodes every body as a fresh one does, keeping nothing
// of a refused body readable.
func FuzzInferRequest(f *testing.F) {
	const width, maxRows = 16, 4
	for _, c := range wiretest.Rejects(width, maxRows) {
		f.Add([]byte(c.Body), "")
	}
	for _, c := range wiretest.Accepts(width, maxRows) {
		f.Add([]byte(c.Body), "2000")
	}
	ok := []byte(wiretest.Accepts(width, maxRows)[0].Body)
	for _, deadline := range []string{"0", "-5", "soon", "1", "10000000000000", "9223372036854775807", "9223372036854775808", " 7", "1e3"} {
		f.Add(ok, deadline)
	}

	tier, _ := newTier(f, 2, 1, Config{MaxRows: maxRows})
	f.Cleanup(func() { tier.Close() })
	h := tier.Handler()
	closed := map[int]bool{http.StatusOK: true, http.StatusBadRequest: true, http.StatusTooManyRequests: true,
		http.StatusBadGateway: true, http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true}

	f.Fuzz(func(t *testing.T, body []byte, deadline string) {
		rec := serveInfer(h, bytes.NewReader(body), deadline)
		if !closed[rec.Code] {
			t.Fatalf("status %d outside the closed set: %s", rec.Code, rec.Body.String())
		}
		st := tier.Stats()
		if st.Received != st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted || st.Admitted != st.Terminal() || st.Internal != 0 {
			t.Fatalf("accounting broken: %+v", st)
		}
		if err := wiretest.Recycles(body, width, maxRows); err != nil {
			t.Fatal(err)
		}
		req, err := wire.ParseRequest(body, wire.NewBatch(width), maxRows)
		if err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("decoder refused (%v) but the handler answered %d", err, rec.Code)
			}
			return
		}
		if err := wiretest.AgreesWithJSON(body, req); err != nil {
			t.Fatal(err)
		}
		if roomy := deadline == "" || deadline == "2000"; roomy && req.Tenant != "" && rec.Code != http.StatusOK {
			t.Fatalf("a well-formed request with a roomy deadline answered %d: %s", rec.Code, rec.Body.String())
		}
	})
}
