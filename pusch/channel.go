package pusch

import (
	"repro/internal/campaign"
	"repro/internal/channel"
)

// Fading-channel subsystem re-exports: named 3GPP TDL power-delay
// profiles for the per-slot channel spec ChainConfig.Channel. See
// internal/channel for the full contract.

// ChannelProfile names a power-delay profile.
type ChannelProfile = channel.Profile

// Named TDL fading profiles.
const (
	ChannelTDLA = channel.TDLA
	ChannelTDLB = channel.TDLB
	ChannelTDLC = channel.TDLC
)

// ChannelProfiles lists every named profile in canonical order.
var ChannelProfiles = channel.Profiles

// DopplerFromSpeed converts a UE speed in km/h and a carrier frequency
// in GHz to the maximum Doppler shift in Hz.
func DopplerFromSpeed(speedKmh, carrierGHz float64) float64 {
	return channel.DopplerFromSpeed(speedKmh, carrierGHz)
}

// ProfileSweep generates one chain scenario per fading profile at the
// base operating point.
func ProfileSweep(base ChainConfig, profiles []ChannelProfile) []Scenario {
	return campaign.ProfileSweep(base, profiles)
}

// LinkCurves generates the profile x SNR cross product behind
// BER-versus-SNR link curves over standardized fading channels.
func LinkCurves(base ChainConfig, profiles []ChannelProfile, minDB, maxDB, stepDB float64) []Scenario {
	return campaign.LinkCurves(base, profiles, minDB, maxDB, stepDB)
}
