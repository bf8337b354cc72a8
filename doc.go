// Package repro is a from-scratch Go reproduction of
//
//	Thomas Brinkhoff: "A Robust and Self-Tuning Page-Replacement
//	Strategy for Spatial Database Systems", EDBT 2002 (LNCS 2287).
//
// The system consists of:
//
//   - internal/geom — 2-D geometry (points, MBRs, area/margin/overlap);
//   - internal/page — the spatial page model and the five spatial
//     replacement criteria A, EA, M, EM, EO;
//   - internal/storage — page stores with physical-I/O accounting (memory
//     and file backed, fixed-size binary pages);
//   - internal/buffer — the buffer manager with a pluggable replacement
//     Policy interface;
//   - internal/core — the paper's contribution: LRU, FIFO, LRU-T, LRU-P,
//     LRU-K, the pure spatial strategies, SLRU and the self-tuning
//     adaptable spatial buffer (ASB);
//   - internal/rtree — a full R*-tree (insertion with forced reinsertion,
//     R* split, deletion, window/point/NN queries, spatial join);
//   - internal/dataset, internal/queryset — synthetic stand-ins for the
//     paper's proprietary data and its five query distributions;
//   - internal/trace — page-reference recording and exact replay;
//   - internal/experiment — the evaluation harness reproducing every
//     figure of the paper (Figs. 4–9, 12–14) and the extensions beyond
//     it (spatialbench -figure crosssam|updates|join|filterrefine|
//     ablation-overflow|ablation-criteria).
//
// Command-line tools live under cmd/ (spatialbench, datagen, tracedump,
// asbviz, bufserve). Example shows the library surface end to end;
// EXPERIMENTS.md records paper-versus-measured results, and go test
// checks every number it quotes against results/. See README.md and
// DESIGN.md.
package repro
