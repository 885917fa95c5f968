#include <gtest/gtest.h>

#include <utility>

#include "sim/config.hh"
#include "sim/log.hh"

using namespace affalloc;
using sim::MachineConfig;

TEST(Config, DefaultsMatchTable2)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.meshX, 8u);
    EXPECT_EQ(cfg.meshY, 8u);
    EXPECT_EQ(cfg.numBanks(), 64u);
    EXPECT_EQ(cfg.l3BankSizeBytes, 1024u * 1024u);
    EXPECT_EQ(cfg.l3TotalBytes(), 64ull * 1024 * 1024);
    EXPECT_EQ(cfg.l3DefaultInterleave, 1024u);
    EXPECT_EQ(cfg.l1SizeBytes, 32u * 1024u);
    EXPECT_EQ(cfg.l2SizeBytes, 256u * 1024u);
    EXPECT_EQ(cfg.dramChannels, 4u);
    EXPECT_EQ(cfg.iotEntries, 16u);
    EXPECT_EQ(cfg.seL3Streams, 768u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, DramChannelBandwidth)
{
    MachineConfig cfg;
    // 25.6 GB/s over 4 channels at 2 GHz = 3.2 B/cycle each.
    EXPECT_DOUBLE_EQ(cfg.dramChannelBytesPerCycle(), 3.2);
}

TEST(Config, ValidateRejectsBadLineSize)
{
    MachineConfig cfg;
    cfg.lineSize = 48;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidateRejectsZeroMesh)
{
    MachineConfig cfg;
    cfg.meshX = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidateRejectsMeshesAbove256Tiles)
{
    for (const auto &[x, y] : {std::pair{16u, 16u}, std::pair{256u, 1u}}) {
        MachineConfig cfg;
        cfg.meshX = x;
        cfg.meshY = y;
        EXPECT_NO_THROW(cfg.validate()) << x << "x" << y;
    }
    for (const auto &[x, y] : {std::pair{17u, 16u}, std::pair{32u, 32u},
                               std::pair{65536u, 65536u}}) {
        MachineConfig cfg;
        cfg.meshX = x;
        cfg.meshY = y;
        EXPECT_THROW(cfg.validate(), FatalError) << x << "x" << y;
    }
}

TEST(Config, ValidateRejectsTooManyChannels)
{
    MachineConfig cfg;
    cfg.dramChannels = 100;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidateRejectsSimThreadsOtherThanOne)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.simThreads, 1u);
    for (const std::uint32_t t : {0u, 2u, 4u}) {
        cfg.simThreads = t;
        EXPECT_THROW(cfg.validate(), FatalError) << "simThreads " << t;
    }
}

TEST(Config, ToStringMentionsKeyParameters)
{
    MachineConfig cfg;
    const std::string s = cfg.toString();
    EXPECT_NE(s.find("8x8"), std::string::npos);
    EXPECT_NE(s.find("1MB/bank"), std::string::npos);
    EXPECT_NE(s.find("IOT"), std::string::npos);
}

TEST(Config, TrafficClassNames)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::control), "Control");
    EXPECT_STREQ(trafficClassName(TrafficClass::data), "Data");
    EXPECT_STREQ(trafficClassName(TrafficClass::offload), "Offload");
}

TEST(Config, ExecModeNames)
{
    EXPECT_STREQ(execModeName(ExecMode::inCore), "In-Core");
    EXPECT_STREQ(execModeName(ExecMode::nearL3), "Near-L3");
    EXPECT_STREQ(execModeName(ExecMode::affAlloc), "Aff-Alloc");
}
