package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"graphite/internal/codec"
)

// This file is the durable half of the checkpoint subsystem: checkpoint.go
// captures a shard, and the CheckpointStore persists those captures to disk
// so a worker process that was SIGKILLed can be replaced and reload its
// shard state. A generation is its file, ckpt-%08d.bin, written through
// codec's durable writer (temp file, fsync, rename, directory fsync), so the
// directory is the index: a generation exists once its rename is durable,
// and a torn write is a .tmp file no listing sees. The frame carries the
// superstep under its CRC32, so every load verifies the whole file and a
// torn or corrupted one is a typed error, never silently loaded;
// LatestValid walks the files newest-first past corrupt generations.

// Checkpoint-store errors. ErrCheckpointCorrupt wraps every integrity
// failure (bad magic, truncation, CRC mismatch); callers fall back to an
// older generation via LatestValid.
var (
	ErrCheckpointCorrupt = errors.New("engine: checkpoint corrupt")
	ErrNoCheckpoint      = errors.New("engine: no checkpoint available")
)

// ckptMagic opens every checkpoint file: 4 bytes of magic including a
// format version. The frame is
//
//	"GCK2" | uvarint superstep | uvarint length | payload | u32 CRC32
//
// with the CRC (IEEE, little-endian) over everything after the magic. A
// "GCK1" file (the previous version) is corrupt here: a checkpoint
// directory belongs to one job, so none outlives a format change.
var ckptMagic = [4]byte{'G', 'C', 'K', '2'}

// DefaultKeepGenerations is how many generations Prune retains by default.
// The cluster rollback target is the last globally-committed generation,
// which trails any single worker's newest by at most one, so even two would
// suffice; the margin keeps forensics possible.
const DefaultKeepGenerations = 4

// CheckpointMeta describes one stored generation.
type CheckpointMeta struct {
	Gen       int
	Superstep int    // superstep about to execute on restore
	Bytes     int64  // payload length
	CRC       uint32 // the frame's CRC32
}

// CheckpointStore persists checkpoint generations in one directory, for one
// process at a time (the worker owning the shard). Saves are serialized;
// every other method reads the directory as it stands, where a rename makes
// a generation appear whole or not at all.
type CheckpointStore struct {
	// CommitHook, when set, is invoked at the "written" stage of Save: after
	// the temp file is written and synced, before it is renamed into place.
	// It is the seam the process-kill chaos driver uses to SIGKILL a worker
	// mid-checkpoint and prove recovery falls back to the previous
	// generation.
	CommitHook func(stage string)

	dir string
	mu  sync.Mutex
}

// OpenCheckpointStore opens (creating if needed) a checkpoint directory.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

func genName(gen int) string { return fmt.Sprintf("ckpt-%08d.bin", gen) }

func (s *CheckpointStore) genPath(gen int) string { return filepath.Join(s.dir, genName(gen)) }

// ckptHeader is a frame's magic, superstep and payload length.
func ckptHeader(superstep, n int) []byte {
	hdr := append(make([]byte, 0, 24), ckptMagic[:]...)
	return binary.AppendUvarint(binary.AppendUvarint(hdr, uint64(superstep)), uint64(n))
}

// decodeCkptFrame verifies a whole checkpoint file and returns its
// superstep and payload, which aliases frame. Every failure wraps
// ErrCheckpointCorrupt.
func decodeCkptFrame(frame []byte) (superstep int, data []byte, err error) {
	r := codec.NewReader(frame, ErrCheckpointCorrupt)
	if magic := r.Bytes(len(ckptMagic)); r.Err == nil && [4]byte(magic) != ckptMagic {
		r.Fail("magic %q, want %q", magic, ckptMagic[:])
	}
	superstep = r.Int("superstep")
	data = r.Field("payload")
	sum := r.Bytes(4)
	if err := r.Done(); err != nil {
		return 0, nil, err
	}
	if len(ckptHeader(superstep, len(data)))+len(data)+len(sum) != len(frame) {
		return 0, nil, fmt.Errorf("%w: header varints not minimal", ErrCheckpointCorrupt)
	}
	if got, want := crc32.ChecksumIEEE(frame[len(ckptMagic):len(frame)-len(sum)]), binary.LittleEndian.Uint32(sum); got != want {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCheckpointCorrupt, got, want)
	}
	return superstep, data, nil
}

// Save persists one generation as its file; re-saving a generation replaces
// it. The header and CRC are written around data rather than copied with it
// into a frame.
func (s *CheckpointStore) Save(gen, superstep int, data []byte) (CheckpointMeta, error) {
	if superstep < 0 || superstep > math.MaxInt32 {
		return CheckpointMeta{}, fmt.Errorf("engine: checkpoint gen %d: superstep %d out of range", gen, superstep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hdr := ckptHeader(superstep, len(data))
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[len(ckptMagic):]), crc32.IEEETable, data)
	path := s.genPath(gen)
	tmp, err := codec.WriteTemp(path, hdr, data, binary.LittleEndian.AppendUint32(nil, sum))
	if err != nil {
		return CheckpointMeta{}, fmt.Errorf("engine: save checkpoint gen %d: %w", gen, err)
	}
	if s.CommitHook != nil {
		s.CommitHook("written")
	}
	if err := codec.Publish(tmp, path); err != nil {
		return CheckpointMeta{}, fmt.Errorf("engine: save checkpoint gen %d: %w", gen, err)
	}
	return CheckpointMeta{Gen: gen, Superstep: superstep, Bytes: int64(len(data)), CRC: sum}, nil
}

// Load reads and verifies one generation. Any integrity failure — bad
// magic, truncated frame, payload shorter than its header claims, CRC
// mismatch — returns an error wrapping ErrCheckpointCorrupt; an absent
// generation returns ErrNoCheckpoint.
func (s *CheckpointStore) Load(gen int) ([]byte, CheckpointMeta, error) {
	frame, err := os.ReadFile(s.genPath(gen))
	if errors.Is(err, os.ErrNotExist) {
		return nil, CheckpointMeta{}, fmt.Errorf("%w: generation %d", ErrNoCheckpoint, gen)
	}
	if err != nil {
		return nil, CheckpointMeta{}, fmt.Errorf("engine: read checkpoint gen %d: %w", gen, err)
	}
	superstep, data, err := decodeCkptFrame(frame)
	if err != nil {
		return nil, CheckpointMeta{}, fmt.Errorf("engine: checkpoint gen %d: %w", gen, err)
	}
	crc := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	return data, CheckpointMeta{Gen: gen, Superstep: superstep, Bytes: int64(len(data)), CRC: crc}, nil
}

// gens lists the generations the directory holds, ascending: its files
// named ckpt-%08d.bin. Temp files and anything else are ignored.
func (s *CheckpointStore) gens() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("engine: list checkpoints: %w", err)
	}
	var gens []int
	for _, e := range ents {
		gen, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(e.Name(), "ckpt-"), ".bin"))
		if err == nil && gen >= 0 && genName(gen) == e.Name() {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return gens, nil
}

// LatestValid returns the newest generation that loads and verifies
// cleanly, walking the directory past corrupt generations — the fallback
// path a torn checkpoint write must land on. ErrNoCheckpoint when nothing
// valid remains.
func (s *CheckpointStore) LatestValid() ([]byte, CheckpointMeta, error) {
	gens, err := s.gens()
	if err != nil {
		return nil, CheckpointMeta{}, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		data, meta, err := s.Load(gens[i])
		if err == nil {
			return data, meta, nil
		}
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrNoCheckpoint) {
			return nil, CheckpointMeta{}, err
		}
	}
	return nil, CheckpointMeta{}, ErrNoCheckpoint
}

// Generations returns the generations the directory holds, ascending. One
// whose file does not verify is listed by its Gen alone; a directory that
// cannot be listed holds none.
func (s *CheckpointStore) Generations() []CheckpointMeta {
	gens, _ := s.gens()
	metas := make([]CheckpointMeta, len(gens))
	for i, gen := range gens {
		_, metas[i], _ = s.Load(gen)
		metas[i].Gen = gen
	}
	return metas
}

// Prune deletes all but the newest keep generations; keep <= 0 means
// DefaultKeepGenerations.
func (s *CheckpointStore) Prune(keep int) error {
	if keep <= 0 {
		keep = DefaultKeepGenerations
	}
	gens, err := s.gens()
	if err != nil {
		return err
	}
	for _, gen := range gens[:max(len(gens)-keep, 0)] {
		if err := os.Remove(s.genPath(gen)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
