// Package ciphermatch is an open-source reproduction of CIPHERMATCH
// (Kabra et al., ASPLOS 2025): homomorphic-encryption-based secure exact
// string matching accelerated by memory-efficient data packing and
// in-flash processing.
//
// The package exposes four layers:
//
//   - the BFV-based secure matcher (Client / Server): pack a database 16
//     bits per plaintext coefficient, encrypt it, and search it with
//     homomorphic additions only;
//   - two baselines the paper compares against (YasudaMatcher,
//     BooleanMatcher);
//   - the hardware simulators: the NAND-flash in-flash-processing SSD
//     (NewSSD) whose CM-search runs the bit-serial-addition µ-program of
//     Fig. 5, and the SIMDRAM-style PuM bank;
//   - the performance/energy model and experiment harness that regenerate
//     every table and figure of the paper's evaluation (see cmd/cmbench).
//
// Quickstart:
//
//	client, _ := ciphermatch.NewClient(ciphermatch.Config{
//		Params: ciphermatch.ParamsPaper(),
//		Mode:   ciphermatch.ModeSeededMatch,
//	}, ciphermatch.NewSeed("my-secret-seed"))
//	db, _ := client.EncryptDatabase(data, len(data)*8)
//	server := ciphermatch.NewServer(ciphermatch.ParamsPaper(), db)
//	query, _ := client.PrepareQuery(needle, len(needle)*8, len(data)*8)
//	result, _ := server.SearchAndIndex(query)
//	fmt.Println(result.Candidates) // bit offsets of matches
//
// The implementation is a research artifact: the cryptography is not
// constant-time and the paper's parameter set trades security margin for
// evaluation speed (see DESIGN.md §11). Do not protect real data with it.
package ciphermatch

import (
	"fmt"
	"os"
	"strings"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/flash"
	"ciphermatch/internal/perfmodel"
	"ciphermatch/internal/pum"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/ssd"
)

// Core matcher types (see internal/core for full documentation).
type (
	// Config configures the matcher: parameters, occurrence alignment,
	// index-generation mode.
	Config = core.Config
	// Client is the data owner: key holder, database encryptor, query
	// builder.
	Client = core.Client
	// Server stores the encrypted database and runs addition-only search.
	Server = core.Server
	// Query is the encrypted query artifact, carrying only what its mode
	// ships: in ModeClientDecrypt the shift-variant pattern ciphertexts,
	// in ModeSeededMatch the factored match tokens (a per-chunk DBTok
	// plane and per-phase RHS comparands — chunks + phases polynomials
	// on the wire, not one per residue per chunk) and no patterns.
	Query = core.Query
	// EncryptedDB is the packed, encrypted database.
	EncryptedDB = core.EncryptedDB
	// SearchResult holds per-(variant, chunk) result ciphertexts
	// (ModeClientDecrypt).
	SearchResult = core.SearchResult
	// IndexResult holds server-generated hit records and candidates
	// (ModeSeededMatch).
	IndexResult = core.IndexResult
	// IndexMode selects client-side or server-side index generation.
	IndexMode = core.IndexMode
	// HitWords is the hit form every search produces, server engines and
	// the client-decrypt Client.ExtractHits alike: one record per nonzero
	// 64-window word of a residue's hits.
	HitWords = core.HitWords

	// Engine is the backend-agnostic execution interface: the CPU
	// engine (serial or fanned out over workers) and the in-flash simulator
	// both satisfy it and return identical results.
	Engine = core.Engine
	// BatchQuery carries N independent queries against one database, so
	// an engine can amortise a single pass over the encrypted chunks
	// across all of them (see Engine.SearchAndIndexBatch).
	BatchQuery = core.BatchQuery
	// EngineSpec selects and parameterises an engine ("kind[:workers]";
	// see ParseEngineSpec).
	EngineSpec = core.EngineSpec

	// YasudaMatcher is the arithmetic baseline [27].
	YasudaMatcher = core.YasudaMatcher
	// BooleanMatcher is the Boolean baseline [17]/[33].
	BooleanMatcher = core.BooleanMatcher

	// Params is a BFV parameter set.
	Params = bfv.Params

	// Seed is a deterministic randomness source; database encryption
	// randomness derives from it (enabling ModeSeededMatch).
	Seed = rng.Source
)

// Index-generation modes.
const (
	// ModeClientDecrypt returns result ciphertexts for the client to
	// decrypt — always cryptographically conventional.
	ModeClientDecrypt = core.ModeClientDecrypt
	// ModeSeededMatch ships "encrypted match polynomial" tokens so the
	// server's index-generation unit finds hits (the paper's flow).
	ModeSeededMatch = core.ModeSeededMatch
)

// ParamsPaper returns the paper's BFV configuration (n=1024, log q=32,
// log t=16).
func ParamsPaper() Params { return bfv.ParamsPaper() }

// ParamsN2048 returns the conservative-security preset.
func ParamsN2048() Params { return bfv.ParamsN2048() }

// NewSeed derives a deterministic seed from a label. Use
// ciphermatch.NewRandomSeed for production-style entropy.
func NewSeed(label string) *Seed { return rng.NewSourceFromString(label) }

// NewRandomSeed draws a seed from the OS entropy pool.
func NewRandomSeed() (*Seed, error) { return rng.NewRandomSource() }

// NewClient creates a matcher client with fresh keys derived from seed.
func NewClient(cfg Config, seed *Seed) (*Client, error) { return core.NewClient(cfg, seed) }

// Engine kinds for EngineSpec / Config.Engine.
const (
	// EngineSerial executes searches on the calling goroutine.
	EngineSerial = core.EngineSerial
	// EnginePool fans each search's chunk ranges out over N workers.
	EnginePool = core.EnginePool
	// EngineSSD executes CM-search inside the simulated in-flash drive.
	EngineSSD = core.EngineSSD
)

// NewServer creates a matcher server over an encrypted database.
func NewServer(p Params, db *EncryptedDB) *Server { return core.NewServer(p, db) }

// NewServerWithEngine creates a matcher server whose SearchAndIndex
// runs on the engine selected by cfg.Engine — the same search moved
// between substrates, as the paper moves it between CPU, PuM and flash.
func NewServerWithEngine(cfg Config, db *EncryptedDB) (*Server, error) {
	eng, err := NewEngine(cfg.Params, db, cfg.Engine)
	if err != nil {
		return nil, err
	}
	return core.NewServerWithEngine(cfg.Params, db, eng), nil
}

// NewEngine builds a standalone execution engine for an encrypted
// database (serial, pool or ssd). Close it when done.
func NewEngine(p Params, db *EncryptedDB, spec EngineSpec) (Engine, error) {
	return engine.Build(p, db, spec)
}

// ParseEngineSpec reads "kind[:workers]", e.g. "serial", "pool:8" or
// "ssd".
func ParseEngineSpec(s string) (EngineSpec, error) { return engine.Parse(s) }

// NewBatchQuery assembles queries into a batch, deduplicating match
// tokens shared between members (the DBTok plane of one data owner's
// queries, the RHS of the same hot query issued by several users), so
// batch execution streams each chunk once per distinct DBTok plane.
func NewBatchQuery(queries ...*Query) *BatchQuery { return core.NewBatchQuery(queries...) }

// ReadPatternFile loads the batch-query file format the CLIs' -queryfile
// flag accepts: one pattern per line, blank lines skipped, CRLF
// tolerated. It errors on an empty pattern set.
func ReadPatternFile(path string) ([][]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var patterns [][]byte
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimRight(line, "\r"); line != "" {
			patterns = append(patterns, []byte(line))
		}
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("ciphermatch: pattern file %s holds no patterns", path)
	}
	return patterns, nil
}

// Candidates converts hit records (Client.ExtractHits on the
// client-decrypt path) into candidate occurrence offsets.
func Candidates(hits *HitWords, dbBits, queryBits, alignBits int) []int {
	return core.Candidates(hits, dbBits, queryBits, alignBits)
}

// VerifyCandidates filters candidates against the plaintext database (data
// owner's exact verification pass).
func VerifyCandidates(db []byte, dbBits int, query []byte, queryBits int, candidates []int) []int {
	return core.VerifyCandidates(db, dbBits, query, queryBits, candidates)
}

// FindOccurrences is the plaintext-domain ground truth matcher.
func FindOccurrences(db []byte, dbBits int, query []byte, queryBits, alignBits int) []int {
	return core.FindOccurrences(db, dbBits, query, queryBits, alignBits)
}

// Simulator types.
type (
	// SSD is the CIPHERMATCH-enabled drive simulator: CM-write and
	// CM-search with functional in-flash bit-serial addition.
	SSD = ssd.SSD
	// SSDConfig is the drive configuration (Table 3 defaults).
	SSDConfig = ssd.Config
	// FlashPlane is one NAND plane with the latch-circuit extensions.
	FlashPlane = flash.Plane
	// PuMBank is one SIMDRAM-style processing-using-memory bank.
	PuMBank = pum.Bank
)

// Transposition-unit kinds for the SSD controller.
const (
	// SoftwareTransposition runs on the controller cores (§4.3.2).
	SoftwareTransposition = ssd.SoftwareTransposition
	// HardwareTransposition is the dedicated unit of §7.1.
	HardwareTransposition = ssd.HardwareTransposition
)

// DefaultSSDConfig returns the Table 3 drive configuration.
func DefaultSSDConfig() SSDConfig { return ssd.DefaultConfig() }

// NewSSD creates the CM-IFP drive simulator.
func NewSSD(cfg SSDConfig, p Params, kind ssd.TranspositionKind) (*SSD, error) {
	return ssd.New(cfg, p, kind)
}

// NewFlashPlane creates a standalone NAND plane simulator with Table 3
// timing and energy.
func NewFlashPlane() *FlashPlane {
	return flash.NewPlane(flash.DefaultGeometry(), flash.DefaultTiming(), flash.DefaultEnergy())
}

// NewPuMBank creates a SIMDRAM-style bank on external DDR4 parameters.
func NewPuMBank() *PuMBank { return pum.NewBank(pum.ExternalDDR4()) }

// Model is the performance/energy model behind the figure reproductions.
type Model = perfmodel.Model

// NewModel returns the model with all paper constants.
func NewModel() *Model { return perfmodel.NewPaperModel() }

// Search is the one-call convenience API: it encrypts data under a fresh
// seeded client, searches for query, and returns the verified occurrence
// bit offsets (multiples of alignBits). It runs client and server roles
// in-process; use the Client/Server API for real deployments.
func Search(data, query []byte, alignBits int, seed *Seed) ([]int, error) {
	cfg := Config{Params: ParamsPaper(), AlignBits: alignBits, Mode: ModeSeededMatch}
	client, err := NewClient(cfg, seed)
	if err != nil {
		return nil, err
	}
	dbBits := len(data) * 8
	db, err := client.EncryptDatabase(data, dbBits)
	if err != nil {
		return nil, err
	}
	server := NewServer(cfg.Params, db)
	q, err := client.PrepareQuery(query, len(query)*8, dbBits)
	if err != nil {
		return nil, err
	}
	ir, err := server.SearchAndIndex(q)
	if err != nil {
		return nil, err
	}
	defer ir.Release()
	return VerifyCandidates(data, dbBits, query, len(query)*8, ir.Candidates), nil
}
