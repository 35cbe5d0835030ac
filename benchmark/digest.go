package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// sessionOutput is what one closed-loop session answers: the values the
// correctness gate hashes.
type sessionOutput struct {
	Zeta     float64
	Phi      float64
	Capacity []int
	Slots    [][]int
}

// digest hashes the output bit-exactly: ζ and ϕ as IEEE-754 bits, the
// capacity set and every schedule slot in order.
func (o sessionOutput) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(o.Zeta))
	put(math.Float64bits(o.Phi))
	put(uint64(len(o.Capacity)))
	for _, v := range o.Capacity {
		put(uint64(v))
	}
	put(uint64(len(o.Slots)))
	for _, slot := range o.Slots {
		put(uint64(len(slot)))
		for _, v := range slot {
			put(uint64(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// expectedDigests maps workload → session seed → digest of the session's
// output at the commit that defined the benchmark. Regenerate with
// -write-digests only when a change is meant to alter outputs.
//
//go:embed digests.json
var expectedDigestsJSON []byte

type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(expectedDigestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// check compares a session's digest against the table.
func (t digestTable) check(workload string, seed uint64, got string) error {
	want, ok := t[workload][formatSeed(seed)]
	if !ok {
		return fmt.Errorf("%s seed %d: no expected digest", workload, seed)
	}
	if got != want {
		return fmt.Errorf("%s seed %d: output digest %s, expected %s", workload, seed, got, want)
	}
	return nil
}

func formatSeed(seed uint64) string { return strconv.FormatUint(seed, 10) }

// writeDigests stores t as indented JSON (map keys come out sorted).
func writeDigests(path string, t digestTable) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
