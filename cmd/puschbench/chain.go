package main

import (
	"errors"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
)

// chainSeedMix is the stream constant pusch.RunChainOn seeds its
// payload generator with. The traced decomposition must draw the same
// stream; the byte-equality check against pusch.RunChainRecordOn fails
// if the two ever drift apart.
const chainSeedMix = 0x9e3779b97f4a7c15

// tracedChain runs one chain slot on m as pusch.RunChainRecordOn does,
// but through the chain's public stages, one span each: pusch.tx
// (Normalized + NewSlotTX), pusch.plan (NewPipeline), pusch.run
// (RunSymbol x NSymb + Drain) and pusch.score (ScoreSlot +
// ChainResult.Record). m must be fresh or Reset.
func tracedChain(l *lane, op int, m *engine.Machine, cfg pusch.ChainConfig, tally *engineTally) (report.SlotRecord, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = m.Cfg
	}
	var (
		tx  *pusch.SlotTX
		pl  *pusch.Pipeline
		rec report.SlotRecord
	)
	err := l.do("pusch.tx", op, func() (err error) {
		if cfg, err = cfg.Normalized(); err != nil {
			return err
		}
		tx, err = pusch.NewSlotTX(&cfg, rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^chainSeedMix)))
		return err
	})
	if err == nil {
		err = l.do("pusch.plan", op, func() (err error) {
			pl, err = pusch.NewPipeline(m, cfg)
			return err
		})
	}
	if err == nil {
		err = l.do("pusch.run", op, func() error {
			for s := range cfg.NSymb {
				if err := pl.RunSymbol(s, tx.RxTime[s]); err != nil {
					return err
				}
			}
			return pl.Drain()
		})
	}
	if err == nil {
		err = l.do("pusch.score", op, func() error {
			lm, err := pusch.ScoreSlot(&cfg, tx, pl.Detected())
			if err != nil {
				return err
			}
			res := pusch.ChainResult{
				BER:         lm.BER,
				EVMdB:       lm.EVMdB,
				SigmaEst:    pl.Sigma(),
				TotalCycles: pl.Cycles(),
				TimeMs:      float64(pl.Cycles()) / 1e6,
				Stages:      pl.Stages(),
			}
			rec = res.Record(cfg)
			return nil
		})
	}
	if err != nil {
		return report.SlotRecord{}, err
	}
	tally.slots++
	tally.cycles += rec.TotalCycles
	tally.coreCycles += rec.TotalCycles * int64(m.Cfg.NumCores())
	tally.stats.Add(m.TotalStats())
	tally.accesses += m.Mem.Res.Accesses()
	tally.conflicts += m.Mem.Res.ConflictCycles()
	for i, st := range pusch.Stages {
		tally.stage[i] += pl.Stages()[st].Wall
	}
	tally.evmDB += rec.EVMdB
	return rec, nil
}

// tracedMeasure is a sched.MeasureFunc that runs the chain through
// tracedChain on a machine from the pool, spanning the pool Get.
func tracedMeasure(l *lane, op int, tally *engineTally) sched.MeasureFunc {
	return func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
		cl := cfg.Cluster
		if cl == nil {
			cl = arch.MemPool() // sched's own fallback
		}
		var m *engine.Machine
		l.do("engine.pool_get", op, func() error {
			m = pool.Get(cl)
			return nil
		})
		defer pool.Put(m)
		return tracedChain(l, op, m, cfg, tally)
	}
}

// cacheOnly is the MeasureFunc of resolves that must take a fast path:
// it fails any job that reaches the engine.
func cacheOnly(*engine.Machines, pusch.ChainConfig) (report.SlotRecord, error) {
	return report.SlotRecord{}, errors.New("a cycle-accurate job missed the cache and reached the engine")
}
