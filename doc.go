// Package jinjing is a from-scratch reproduction of "Safely and
// Automatically Updating In-Network ACL Configurations with Intent
// Language" (SIGCOMM 2019): the LAI intent language and the check / fix /
// generate primitives over a network model with in-network ACLs, decided
// in an exact packet-set algebra, with a pure-Go CDCL SAT solver behind
// the monolithic baseline and the reference checks.
//
// The root package anchors the module documentation, the public facade
// (api.go) and the end-to-end tests; the implementation lives under
// internal/:
//
//	internal/sat          CDCL SAT solver (baseline and references)
//	internal/smt          formula layer (Tseitin, packet bit-vectors)
//	internal/header       5-tuple packets, prefixes, matches
//	internal/acl          ACLs, decision models, diffs, simplification
//	internal/topo         devices, links, FIBs, scopes, paths, FECs
//	internal/lai          the LAI intent language
//	internal/core         the Jinjing engine (check / fix / generate)
//	internal/pset         exact packet-set algebra (the deciding backend)
//	internal/ciscoconf    Cisco-IOS-style configuration front end
//	internal/netgen       synthetic WAN generator (evaluation substrate)
//	internal/experiments  the §8 evaluation harness
//	internal/papernet     the Figure 1 running-example network
//
// Runnable entry points are under cmd/ and examples/.
package jinjing
