// Package shard is empty. It held a windowed parallel executor that
// split one run across shards; that executor was removed because two
// shards ran the 10^4-host MetroStar point only 1.15–1.29× faster than
// one, short of the 1.3× it was required to reach.
//
// The package stays only because the benchmark module's layer table
// (eacbench/profile.go) names it and its test requires every named
// package to exist. Delete this directory in the same change that drops
// that entry.
package shard
