package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// remoteCatalog is the GET /v1/catalog document: the fleet's scheme,
// workload and attack tables plus the stamp they fingerprint to.
type remoteCatalog struct {
	Schemes   []string       `json:"schemes"`
	Workloads []catalogEntry `json:"workloads"`
	Attacks   []catalogEntry `json:"attacks"`
	Stamp     string         `json:"stamp"`
}

type catalogEntry struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// fetchCatalog reads a remote mithrilsim's /v1/catalog, so a CLI can
// introspect what a fleet actually serves (a fleet built from another
// revision may differ from this binary's tables — that is the point of
// asking).
func fetchCatalog(ctx context.Context, server string) (*remoteCatalog, error) {
	base := strings.TrimRight(strings.TrimSpace(server), "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/catalog", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetching %s/v1/catalog: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("reading %s/v1/catalog: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/catalog: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var cat remoteCatalog
	if err := json.Unmarshal(body, &cat); err != nil {
		return nil, fmt.Errorf("decoding %s/v1/catalog: %w", base, err)
	}
	return &cat, nil
}
