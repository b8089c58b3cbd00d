package netserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"reramtest/internal/fleet"
	"reramtest/internal/journal"
	"reramtest/internal/models"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
)

// storeShard is a two-device shard spec journaling through store.
func storeShard(store *journal.Store) ShardSpec {
	pats := tierPatterns()
	ref := models.MLP(rng.New(1), 16, []int{12}, 5)
	devices := make([]fleet.Device, 2)
	for i := range devices {
		devices[i] = &tierDevice{id: fmt.Sprintf("s0-dev%d", i), net: ref.Clone(), patterns: pats}
	}
	fcfg := tierFleetConfig()
	fcfg.CompactEvery = 2
	return ShardSpec{
		Name:    "shard-0",
		Devices: devices,
		Fleet:   fcfg,
		Serve:   serve.Config{Workers: 2, HedgeAfter: time.Hour},
		Store:   store,
	}
}

// storeTier builds a one-shard frontend journaling through a snapshot store
// over an injectable filesystem.
func storeTier(t *testing.T) (*Frontend, *journal.ErrFS) {
	t.Helper()
	efs := journal.NewErrFS(nil)
	store, _, err := journal.OpenStore(filepath.Join(t.TempDir(), "shard.wal"),
		journal.StoreConfig{FS: efs})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New([]ShardSpec{storeShard(store)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, efs
}

// TestTierRefusesStoreWithHistory: New only commissions, so a shard restarted
// over the store of its previous life must fail with the typed error instead
// of starting again at round 0 underneath its own journal.
func TestTierRefusesStoreWithHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.wal")
	store, _, err := journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New([]ShardSpec{storeShard(store)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.Tick()
	f.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, _, err = journal.OpenStore(path, journal.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := New([]ShardSpec{storeShard(store)}, Config{}); !errors.Is(err, fleet.ErrStoreHasHistory) {
		t.Fatalf("restart over the old store returned %v, want fleet.ErrStoreHasHistory", err)
	}
}

// TestTierSurfacesUnjournaledShard drives a store-backed shard onto a
// persistently full disk and checks the degradation is visible everywhere an
// operator would look: Status, /v1/healthz and /statsz — while the shard
// itself keeps serving (healthz stays 200).
func TestTierSurfacesUnjournaledShard(t *testing.T) {
	f, efs := storeTier(t)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	f.Tick()
	if st := f.Status()[0]; st.Unjournaled {
		t.Fatal("shard unjournaled before any fault")
	}

	efs.SetNoSpace(true)
	f.Tick()
	f.Tick() // degraded ticks keep running memory-only

	st := f.Status()[0]
	if !st.Unjournaled {
		t.Fatal("shard status does not flag the lost journal")
	}
	if st.Draining {
		t.Fatal("durability loss must not drain the shard")
	}
	if len(st.Serving) == 0 {
		t.Fatal("unjournaled shard stopped serving")
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200: an unjournaled shard is degraded, not down", resp.StatusCode)
	}
	var hz struct {
		Shards []struct {
			Name        string `json:"name"`
			Unjournaled bool   `json:"unjournaled"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if len(hz.Shards) != 1 || !hz.Shards[0].Unjournaled {
		t.Fatalf("healthz shards = %+v, want shard-0 unjournaled", hz.Shards)
	}

	resp2, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sz struct {
		Unjournaled []string `json:"unjournaled"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&sz); err != nil {
		t.Fatal(err)
	}
	if len(sz.Unjournaled) != 1 || sz.Unjournaled[0] != "shard-0" {
		t.Fatalf("statsz unjournaled = %v, want [shard-0]", sz.Unjournaled)
	}
}
