/**
 * @file
 * Fundamental scalar types and enums shared by every subsystem.
 */

#ifndef AFFALLOC_SIM_TYPES_HH
#define AFFALLOC_SIM_TYPES_HH

#include <cstdint>
#include <string>

namespace affalloc
{

/** Simulated (virtual or physical) byte address. */
using Addr = std::uint64_t;

/** Simulated time in core clock cycles. */
using Cycles = std::uint64_t;

/** Identifier of an L3 bank (one bank per mesh tile in this work). */
using BankId = std::uint32_t;

/** Identifier of a mesh tile (core + private caches + L3 slice). */
using TileId = std::uint32_t;

/**
 * Largest mesh the simulator builds: 16x16 tiles, 4x the paper's 8x8
 * machine (Table 2). The NoC's all-pairs distance and route tables are
 * sized for it, and MachineConfig::validate() rejects anything larger.
 */
inline constexpr std::uint32_t maxMeshTiles = 256;

/** Identifier of a core; cores and tiles are 1:1 in this machine. */
using CoreId = std::uint32_t;

/** Bank id that means "no bank" / invalid. */
inline constexpr BankId invalidBank = ~BankId(0);

/** Invalid simulated address sentinel. */
inline constexpr Addr invalidAddr = ~Addr(0);

/**
 * NoC message class, matching the traffic breakdown reported in the
 * paper's figures (Offload / Data / Control stacks).
 */
enum class TrafficClass : std::uint8_t
{
    /** Requests, credits, indirect/atomic commands, coherence. */
    control,
    /** Cache-line data, operand forwards, write data. */
    data,
    /** Stream configuration and stream migration messages. */
    offload,
    numClasses
};

/** Number of distinct traffic classes. */
inline constexpr int numTrafficClasses =
    static_cast<int>(TrafficClass::numClasses);

/** Human-readable name of a traffic class. */
const char *trafficClassName(TrafficClass tc);

/**
 * Class of agent sharing the machine. NDC tenants are the paper's
 * near-data workloads; host agents issue ordinary cacheline traffic
 * from the cores (CHoNDA-style co-location), and io agents model
 * DMA/NIC injectors whose writes land directly in L3 (DDIO/A4-style).
 * The enumeration order doubles as arbitration priority: lower values
 * are served first under priority arbitration.
 */
enum class AgentClass : std::uint8_t
{
    /** Near-data-computing tenant (default; the classic agents). */
    ndc,
    /** Host core issuing plain cacheline reads/writes, no offload. */
    host,
    /** DMA/NIC-style I/O injector writing into the LLC. */
    io,
    numClasses
};

/** Number of distinct agent classes. */
inline constexpr int numAgentClasses =
    static_cast<int>(AgentClass::numClasses);

/** Human-readable name of an agent class ("ndc"/"host"/"io"). */
const char *agentClassName(AgentClass c);

/**
 * Execution paradigm of a workload run, matching the paper's three
 * evaluated configurations (Fig. 12).
 */
enum class ExecMode : std::uint8_t
{
    /** Conventional in-core execution; no offloading (In-Core). */
    inCore,
    /** Near-stream computing at L3 with the default layout (Near-L3). */
    nearL3,
    /** Near-stream computing plus affinity alloc layout (Aff-Alloc). */
    affAlloc
};

/** Human-readable name of an execution mode. */
const char *execModeName(ExecMode mode);

/** Memory access direction. */
enum class AccessType : std::uint8_t { read, write, atomic };

} // namespace affalloc

#endif // AFFALLOC_SIM_TYPES_HH
