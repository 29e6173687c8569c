// Tests for the transient engine: analytic RC/RL/LC responses, integrator
// behaviour, drivers, the resumable stepper, and the sparse refactors on
// driver and table moves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "circuit/transient.hpp"
#include "common/constants.hpp"
#include "common/robust.hpp"
#include "si/board.hpp"
#include "tests/test_util.hpp"

using namespace pgsi;

namespace {

Netlist rc_step_circuit(double r, double c) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add_vsource("V1", in, nl.ground(),
                   Source::pulse(0, 1, 0.0, 1e-12, 1e-12, 1.0));
    nl.add_resistor("R1", in, out, r);
    nl.add_capacitor("C1", out, nl.ground(), c);
    return nl;
}

} // namespace

TEST(Transient, RcStepResponse) {
    const double r = 1e3, c = 1e-9, tau = r * c;
    const Netlist nl = rc_step_circuit(r, c);
    TransientOptions opt;
    opt.dt = tau / 200;
    opt.tstop = 3 * tau;
    const TransientResult res = transient_analyze(nl, opt);
    const NodeId out = nl.find_node("out");
    const VectorD w = res.waveform(out);
    for (std::size_t i = 0; i < res.time.size(); ++i) {
        const double expect = 1.0 - std::exp(-res.time[i] / tau);
        EXPECT_NEAR(w[i], expect, 0.01) << "t=" << res.time[i];
    }
}

TEST(Transient, BackwardEulerAlsoConverges) {
    const double r = 1e3, c = 1e-9, tau = r * c;
    const Netlist nl = rc_step_circuit(r, c);
    TransientOptions opt;
    opt.dt = tau / 400;
    opt.tstop = 2 * tau;
    opt.method = Integrator::BackwardEuler;
    const TransientResult res = transient_analyze(nl, opt);
    const VectorD w = res.waveform(nl.find_node("out"));
    const double expect = 1.0 - std::exp(-res.time.back() / tau);
    EXPECT_NEAR(w.back(), expect, 0.02);
}

TEST(Transient, LcOscillationFrequencyAndAmplitude) {
    // Charged C discharging into L: v(t) = cos(ω0 t), lossless.
    Netlist nl;
    const NodeId a = nl.node("a");
    const double l = 1e-6, c = 1e-9;
    // Charge through a source that steps 1 -> stays (DC init at 1 V), then
    // oscillates after the source is isolated by a large R.
    nl.add_vsource("V1", nl.node("src"), nl.ground(), Source::dc(1.0));
    nl.add_resistor("Riso", nl.find_node("src"), a, 1e-3);
    nl.add_capacitor("C1", a, nl.ground(), c);
    nl.add_inductor("L1", a, nl.ground(), l);
    // DC: inductor shorts a to ground; current = 1/1e-3 = 1000 A... that is
    // not the oscillator we want. Instead: start from a current step.
    Netlist nl2;
    const NodeId b = nl2.node("b");
    nl2.add_capacitor("C1", b, nl2.ground(), c);
    nl2.add_inductor("L1", b, nl2.ground(), l);
    nl2.add_isource("I1", nl2.ground(), b,
                    Source::pulse(0, 1e-3, 0, 1e-12, 1e-12, 1.0));
    const double w0 = 1.0 / std::sqrt(l * c);
    TransientOptions opt;
    opt.dt = 2 * pi / w0 / 400;
    opt.tstop = 3 * 2 * pi / w0;
    const TransientResult res = transient_analyze(nl2, opt);
    const VectorD w = res.waveform(b);
    // Peak of the sine: I0·sqrt(L/C).
    const double vpk = 1e-3 * std::sqrt(l / c);
    EXPECT_NEAR(max_abs(w), vpk, 0.03 * vpk);
    // Estimate the frequency from the span between first and last zero
    // crossing (robust to where the window starts/ends).
    int crossings = 0;
    double t_first = 0, t_last = 0;
    for (std::size_t i = 1; i < w.size(); ++i)
        if ((w[i - 1] < 0) != (w[i] < 0)) {
            if (crossings == 0) t_first = res.time[i];
            t_last = res.time[i];
            ++crossings;
        }
    ASSERT_GT(crossings, 3);
    const double f_est = (crossings - 1) / 2.0 / (t_last - t_first);
    EXPECT_NEAR(f_est, w0 / (2 * pi), 0.05 * w0 / (2 * pi));
}

TEST(Transient, TrapezoidalEnergyConservation) {
    // Trapezoidal integration of a lossless LC must not gain or lose
    // amplitude appreciably over many cycles.
    Netlist nl;
    const NodeId b = nl.node("b");
    const double l = 1e-6, c = 1e-9;
    nl.add_capacitor("C1", b, nl.ground(), c);
    nl.add_inductor("L1", b, nl.ground(), l);
    nl.add_isource("I1", nl.ground(), b,
                   Source::pulse(0, 1e-3, 0, 1e-12, 1e-12, 1.0));
    const double period = 2 * pi * std::sqrt(l * c);
    TransientOptions opt;
    opt.dt = period / 200;
    opt.tstop = 20 * period;
    const TransientResult res = transient_analyze(nl, opt);
    const VectorD w = res.waveform(b);
    // Compare the peak in the final two periods with the global peak.
    double late_peak = 0;
    const std::size_t tail = w.size() - static_cast<std::size_t>(2 * 200);
    for (std::size_t i = tail; i < w.size(); ++i)
        late_peak = std::max(late_peak, std::abs(w[i]));
    EXPECT_NEAR(late_peak, max_abs(w), 0.02 * max_abs(w));
}

TEST(Transient, MutualInductorsShareFlux) {
    // Two coupled inductors driven differentially: k -> response scales.
    Netlist nl;
    const NodeId a = nl.node("a");
    const NodeId b = nl.node("b");
    const NodeId asrc = nl.node("asrc");
    nl.add_vsource("V1", asrc, nl.ground(),
                   Source::pulse(0, 1, 0, 1e-9, 1e-9, 10e-9));
    nl.add_resistor("Rs", asrc, a, 1.0);
    nl.add_inductor("La", a, nl.ground(), 10e-9);
    nl.add_inductor("Lb", b, nl.ground(), 10e-9);
    nl.add_mutual("K", "La", "Lb", 0.5);
    nl.add_resistor("Rb", b, nl.ground(), 50.0);
    TransientOptions opt;
    opt.dt = 10e-12;
    opt.tstop = 5e-9;
    const TransientResult res = transient_analyze(nl, opt);
    // Induced voltage appears on the victim inductor during the edge.
    EXPECT_GT(res.peak_abs(b), 0.05);
}

TEST(Transient, DriverSwitchingDrawsSupplyCurrent) {
    Netlist nl;
    const NodeId vcc = nl.node("vcc");
    const NodeId out = nl.node("out");
    nl.add_vsource("Vdd", nl.node("vdd"), nl.ground(), Source::dc(5.0));
    nl.add_inductor("Lpkg", nl.find_node("vdd"), vcc, 5e-9);
    DriverParams p;
    p.input = Source::pulse(0, 1, 1e-9, 0.5e-9, 0.5e-9, 5e-9);
    p.c_out = 2e-12;
    nl.add_driver("D1", out, vcc, nl.ground(), p);
    nl.add_capacitor("Cload", out, nl.ground(), 20e-12);
    TransientOptions opt;
    opt.dt = 10e-12;
    opt.tstop = 8e-9;
    const TransientResult res = transient_analyze(nl, opt);
    // Output swings up toward Vdd during the pulse...
    const VectorD w_out = res.waveform(out);
    EXPECT_GT(w_out[static_cast<std::size_t>(4e-9 / opt.dt)], 4.0);
    // ...and the local Vcc shows inductive droop during the edge.
    EXPECT_GT(res.peak_excursion(vcc), 0.05);
}

TEST(Transient, StepperMatchesBatchAnalysis) {
    const Netlist nl = rc_step_circuit(1e3, 1e-9);
    TransientOptions opt;
    opt.dt = 5e-9;
    opt.tstop = 2e-6;
    const TransientResult res = transient_analyze(nl, opt);

    TransientStepper st(nl, opt.dt);
    const NodeId out = nl.find_node("out");
    const VectorD w = res.waveform(out);
    for (std::size_t i = 1; i < res.time.size(); ++i) {
        st.step();
        EXPECT_NEAR(st.node_voltage(out), w[i], 1e-12);
    }
}

TEST(Transient, ProbeSubsetAndErrors) {
    const Netlist nl = rc_step_circuit(1e3, 1e-9);
    TransientOptions opt;
    opt.dt = 1e-8;
    opt.tstop = 1e-6;
    opt.probes = {nl.find_node("out")};
    const TransientResult res = transient_analyze(nl, opt);
    EXPECT_EQ(res.probes.size(), 1u);
    EXPECT_THROW(res.waveform(nl.find_node("in")), InvalidArgument);
}

TEST(Transient, RejectsBadOptions) {
    const Netlist nl = rc_step_circuit(1e3, 1e-9);
    TransientOptions opt;
    opt.dt = 0;
    opt.tstop = 1e-6;
    EXPECT_THROW(transient_analyze(nl, opt), InvalidArgument);
}

TEST(Transient, ExactMultipleStopTimePinsSampleCount) {
    // Regression: tstop = 1e-8 with dt = 1e-9 divides to 10.000000000000002;
    // ceil() used to add an 11th step past tstop. Exactly 10 steps (11
    // samples counting t = 0) must be taken.
    const Netlist nl = rc_step_circuit(1e3, 1e-9);
    TransientOptions opt;
    opt.dt = 1e-9;
    opt.tstop = 1e-8;
    const TransientResult res = transient_analyze(nl, opt);
    ASSERT_EQ(res.time.size(), 11u);
    EXPECT_NEAR(res.time.back(), 1e-8, 1e-20);
    EXPECT_LE(res.time.back(), 1e-8 * (1.0 + 1e-12));
}

TEST(Transient, NonMultipleStopTimeStillCoversTstop) {
    // A tstop that is not a multiple of dt keeps the covering ceil behavior.
    const Netlist nl = rc_step_circuit(1e3, 1e-9);
    TransientOptions opt;
    opt.dt = 3e-9;
    opt.tstop = 1e-8; // 3.33 steps -> 4 steps, 5 samples
    const TransientResult res = transient_analyze(nl, opt);
    ASSERT_EQ(res.time.size(), 5u);
    EXPECT_GE(res.time.back(), opt.tstop);
}

// --- driver/table refactors ---------------------------------------------------
//
// The reference waveforms below were recorded (%.17g) from a dense
// whole-matrix refactorization, which stamped every driver and table
// conductance into the full MNA matrix and refactored all of it on each move.

namespace {

TransientResult run_border_vsource(const Netlist& nl) {
    TransientOptions opt;
    opt.dt = 10e-12;
    opt.tstop = 4e-9;
    opt.probes = {nl.find_node("vcc"), nl.find_node("out"),
                  nl.find_node("out2")};
    return transient_analyze(nl, opt);
}

// Eval board, 4 of 16 drivers switching; probes die gnd/vcc, board vcc and
// output of site 0, then the VRM node. 81 samples, every 4th kept.
constexpr double kRefSsn[][5] = {
    {3.0000002393354034e-10, 4.9999999991923403, 4.9999999994923412, 1.0029999800178038e-07, 4.9999999995999982},
    {3.0001179691870412e-10, 4.9999999991923554, 4.9999999994923536, 1.0030001013716752e-07, 4.9999999995999982},
    {2.9998737453207474e-10, 4.9999999991923509, 4.9999999994923607, 1.0029998612008089e-07, 4.9999999995999982},
    {2.9999928763923428e-10, 4.9999999991923749, 4.9999999994923758, 1.0029999838028293e-07, 4.9999999995999991},
    {3.0000794990116562e-10, 4.9999999991923927, 4.9999999994923794, 1.0030000727492495e-07, 4.9999999996000053},
    {2.9998510929259286e-10, 4.9999999991923554, 4.9999999994923598, 1.0029998470041111e-07, 4.9999999996000133},
    {1.1830658054683436, 4.1684484920388485, 4.9616300118694747, 1.2595400464025992, 4.9999988566499365},
    {0.57859454127646315, 3.5896495169538891, 4.8336307380989894, 0.81489419403345587, 4.9999250405416964},
    {0.79068919448001507, 4.3452419081888998, 4.7081313620894223, 1.3312808061250494, 4.9991275550657299},
    {0.45147476372826612, 4.2394848916330758, 4.720735529879124, 1.4033659244314014, 4.9954265968744833},
    {0.25716044369859747, 4.2938517056303915, 4.7909415211366113, 1.7449683443520947, 4.9850111814937268},
    {0.10497688468043309, 4.9024212114600765, 4.7966320048697577, 2.2145230182443059, 4.9641857111324414},
    {-0.31972360771936975, 5.0180498550441435, 4.7416894271301109, 2.4135849435204739, 4.9318194732903171},
    {-0.50572184854860336, 5.0811337146543067, 4.7253504147808743, 2.8041563241547833, 4.8905401620567028},
    {-0.3782778146215322, 5.3558128529559745, 4.82173835459818, 3.4291488554565461, 4.8460857135336779},
    {-0.44244603630906154, 5.3482935668728935, 4.9743166251870017, 3.7736027638192526, 4.8058358849369407},
    {-0.38960506201768874, 5.3898042777623463, 5.0407021577692932, 4.1570895635434724, 4.7775740063946976},
    {-0.33289940414254687, 5.409747712898735, 4.9776449429341234, 4.4703880418766602, 4.7682690926410967},
    {-0.40643747857589851, 5.2083482544615451, 4.8818848628272482, 4.5794000216086301, 4.7820703817343198},
    {-0.29695361757972605, 5.1454160694064077, 4.8502115223418691, 4.8032724252841126, 4.8178640364896896},
    {-0.18252126128394042, 5.1136916521369331, 4.8744821320913445, 4.9733303207710877, 4.8681652175021703},
};

// Diode clamp, probe d. 81 samples, every 2nd kept.
constexpr double kRefClamp[][1] = {
    {0},
    {0.75000000000000022},
    {1},
    {1},
    {1},
    {1},
    {1},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.99999999999999967},
    {0.75000000000000155},
    {7.1054273576010019e-15},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
    {0},
};

// border_vsource_netlist, probes vcc/out/out2. 401 samples, every 10th kept.
constexpr double kRefBorderVsource[][3] = {
    {3.2973621097714152, 6.5947240876483487e-08, 2.6378896350593397},
    {3.2973621097714134, 6.5947240876483474e-08, 2.6378896350593384},
    {3.2973621097714134, 6.5947240876483474e-08, 2.6378896350593384},
    {3.2973621097714134, 6.5947240876483474e-08, 2.6378896350593384},
    {3.2973621097714134, 6.5947240876483474e-08, 2.6378896350593384},
    {3.2973621097714134, 6.5947240876483474e-08, 2.6378896350593384},
    {3.255907286556198, 0.16007649679891478, 2.6212739672881535},
    {3.1512247131960969, 0.56473338682360541, 2.5554140333615196},
    {3.0287684923159301, 1.1322822073253183, 2.4611889907103883},
    {2.9499192035602606, 1.6567296283870963, 1.7996506232156997},
    {2.9349997898471254, 2.0193560540917108, 0.9663247880455168},
    {3.0085247442369156, 2.2875657011254011, 0.23246725336245941},
    {3.1498746242700113, 2.5124349965046751, 0.011312914571044453},
    {3.3099670721939978, 2.7168603414120267, 0.0005505872681973253},
    {3.4708987667491615, 2.909245245988525, 2.684828843162561e-05},
    {3.6163609548105322, 3.0822160698181249, 1.363270529024491e-06},
    {3.7307156642750603, 3.1992029034469605, 1.2502851560654771e-07},
    {3.8018482934624256, 3.2757471137601843, 6.6101427001891164e-08},
    {3.8239031652104671, 3.3221695971457699, 6.3806102001276924e-08},
    {3.7966850684827258, 3.3427282713514779, 6.3480245893939566e-08},
    {3.7249505361423583, 3.3400550304002432, 6.2517930149984324e-08},
    {3.6175120901890288, 3.3170619508570516, 6.0915096013803743e-08},
    {3.4861200513166142, 3.2776015488432932, 5.8846119923149331e-08},
    {3.3441785702126294, 3.2264927762087687, 5.6526161880870525e-08},
    {3.2024826152346195, 2.9926539092005107, 5.4161061841110811e-08},
    {3.0660161042768777, 2.4828118189275958, 5.1844152144199054e-08},
    {2.957234273373877, 1.7884397540967956, 4.9844355363156876e-08},
    {2.8581131051235005, 1.1789410713949828, 0.44945875287806009},
    {2.7591437951858491, 0.77715900546994343, 1.1181418463629613},
    {2.7115726258761113, 0.51230391535786468, 1.8541533510197814},
    {2.749964071384559, 0.33771120807823246, 2.1590462179644101},
    {2.8481884587565642, 0.22261954308776499, 2.2436923907214661},
    {2.9879556409431367, 0.14675101759806181, 2.3445633682675773},
    {3.1544172856552581, 0.096738420235072065, 2.4698736413589764},
    {3.3310195258127226, 0.063770073451132295, 2.6084859416898611},
    {3.5006311610242249, 0.042037311576845329, 2.7469480045274062},
    {3.6471589911604028, 0.027711057003877052, 2.8720118252617572},
    {3.7570639166296957, 0.018267178319481769, 2.9719876913396259},
    {3.8206027408813901, 0.012041765807578942, 3.0378371658220402},
    {3.8326801811870546, 0.0079379686768281839, 3.0639825650369765},
    {3.793237630374561, 0.0052327419088762338, 3.0487672840423166},
};

// supply_chain_netlist, dt 10 ps to 4 ns, probes out/far/out2/far2. 401
// samples, every 10th kept.
constexpr double kRefSupplyChain[][4] = {
    {6.5999998680000037e-08, 6.5999998680000037e-08, 2.4999999375000015, 2.4999999375000019},
    {6.5999998680000037e-08, 6.599999868000001e-08, 2.4999999374999997, 2.4999999375000019},
    {6.5999998680000037e-08, 6.599999868000001e-08, 2.4999999374999997, 2.4999999375000019},
    {6.5999998680000037e-08, 6.599999868000001e-08, 2.4999999374999997, 2.4999999375000019},
    {6.5999998680000037e-08, 6.599999868000001e-08, 2.4999999374999997, 2.4999999375000019},
    {6.5999998680000037e-08, 6.599999868000001e-08, 2.4999999374999997, 2.4999999375000019},
    {0.42119299854618425, 0.10974035952168258, 2.4999999374999997, 2.4999999375000019},
    {1.1048201370252846, 0.48638448865770578, 2.4999999374999997, 2.4999999375000019},
    {1.9581431060783487, 1.0852269330822706, 2.4999999374999997, 2.4999999375000019},
    {2.4406668020129416, 1.7386684952098981, 2.0212243199451887, 2.3938040528540667},
    {2.7015588015081384, 2.2109816418313426, 1.32014678969729, 2.0244622508779337},
    {2.8826708790969771, 2.5405431933002789, 0.62141533183474751, 1.4919705270494004},
    {3.0089649531656342, 2.7703733503459995, 0.32078795065919224, 0.9695792256690815},
    {3.0970392524308044, 2.9306513026172132, 0.20312495298147126, 0.61967523640394273},
    {3.1584601135840185, 3.0424252267869041, 0.12969874351830027, 0.39580747794532894},
    {3.2012935199454895, 3.1203736278052876, 0.082840144004864044, 0.25281007071570649},
    {3.2311644899478673, 3.1747329362598955, 0.05291158816630543, 0.16147467443475078},
    {3.2519957738611014, 3.2126417884884955, 0.033795665944763638, 0.10313699650525833},
    {3.2665230017830376, 3.2390784948805584, 0.021585959490561538, 0.065875600170678936},
    {3.2766539352374928, 3.2575148073451365, 0.013787385302461872, 0.04207603011351236},
    {3.2837190004522845, 3.2703718407535671, 0.0088062860693822222, 0.02687478725719581},
    {3.2886460041399155, 3.279338021402928, 0.0056247622455848374, 0.017165461255894212},
    {3.292081976009944, 3.2855908164982792, 0.003592661826025132, 0.010963928112150897},
    {3.2944781387571456, 3.2899513628706325, 0.0022947202282639022, 0.0070028896911739115},
    {2.7487560358943792, 3.1499415769144199, 0.0014656999815361375, 0.0044728983150437579},
    {1.9402691308265414, 2.6811629607581646, 0.00093618881503217404, 0.0028569441931662466},
    {1.082932212536089, 2.0066345267643366, 0.00059797985504707579, 0.0018248032346436364},
    {0.65824279075295578, 1.3450501931111563, 0.36656852345489449, 0.082207944707601913},
    {0.43688052722618748, 0.89364986376766309, 0.96281908103534619, 0.37630578161493872},
    {0.2902337429276472, 0.59368655945386561, 1.6874136496247476, 0.85221153558061591},
    {0.19281344448415419, 0.39440884804200543, 2.0610336037324939, 1.379880322527308},
    {0.12809341123907161, 0.26202099388802252, 2.2122638609639287, 1.7552105468692607},
    {0.085097403332211816, 0.17407064903633571, 2.3090678968714777, 2.0053824250174368},
    {0.056533501110083817, 0.115641851268119, 2.3732157645430028, 2.1715452148246772},
    {0.037557401934841188, 0.076825352999849328, 2.4158084347057032, 2.2818877945909444},
    {0.02495084919185505, 0.051038059826582154, 2.4440921330083061, 2.3551614158030545},
    {0.016575831197164343, 0.03390656886600734, 2.4628740650916985, 2.4038191525642674},
    {0.011011984534132931, 0.022525460326996122, 2.4753463059680771, 2.4361305795691259},
    {0.0073157071399410105, 0.014964552063095181, 2.4836285633470623, 2.4575871532305791},
    {0.0048601278613829802, 0.009941549815188324, 2.4891284400772231, 2.4718355042293956},
    {0.0032287920739881982, 0.0066045761736829639, 2.4927806622510515, 2.4812971969202899},
};

// Largest |result − reference| over the kept samples, relative to the
// reference's max |v|.
template <std::size_t P, std::size_t S>
double rel_error_vs_reference(const TransientResult& r,
                              const double (&ref)[S][P], std::size_t every) {
    EXPECT_EQ(r.probes.size(), P);
    EXPECT_EQ((r.samples.size() + every - 1) / every, S);
    double scale = 0, err = 0;
    for (std::size_t s = 0; s < S; ++s)
        for (std::size_t k = 0; k < P; ++k) {
            scale = std::max(scale, std::abs(ref[s][k]));
            err = std::max(err, std::abs(r.samples[s * every][k] - ref[s][k]));
        }
    return err / scale;
}

bool same_stats(const TransientStats& a, const TransientStats& b) {
    return a.steps == b.steps && a.newton_iterations == b.newton_iterations &&
           a.step_rejections == b.step_rejections &&
           a.timestep_cuts == b.timestep_cuts &&
           a.lu_factorizations == b.lu_factorizations &&
           a.lu_solves == b.lu_solves && a.lu_nnz == b.lu_nnz &&
           a.factor_flops == b.factor_flops;
}

} // namespace

TEST(TransientBorder, SsnModelMatchesWholeMatrixReference) {
    const SsnModel model(std::make_shared<PlaneModel>(make_ssn_eval_board(4),
                                                      test::coarse_ssn()));
    const TransientResult r = model.simulate(
        50e-12, 4e-9,
        {model.die_gnd(0), model.die_vcc(0), model.board_vcc(0), model.out(0),
         model.vrm_vcc()});
    EXPECT_LE(rel_error_vs_reference(r, kRefSsn, 4), 1e-10);
}

TEST(TransientBorder, DiodeClampMatchesWholeMatrixReference) {
    const Netlist nl = test::diode_clamp_netlist();
    TransientOptions opt;
    opt.dt = 2.5e-11;
    opt.tstop = 2e-9;
    opt.probes = {nl.find_node("d")};
    const TransientResult r = transient_analyze(nl, opt);
    EXPECT_LE(rel_error_vs_reference(r, kRefClamp, 2), 1e-10);
}

TEST(TransientBorder, BranchWithoutInteriorTerminalJoinsBorder) {
    const Netlist nl = test::border_vsource_netlist();
    const TransientResult r = run_border_vsource(nl);
    EXPECT_LE(rel_error_vs_reference(r, kRefBorderVsource, 10), 1e-10);
}

TEST(TransientBorder, ZeroImpedanceChainThroughInteriorNodeJoinsBorder) {
    const Netlist nl = test::supply_chain_netlist();
    TransientOptions opt;
    opt.dt = 10e-12;
    opt.tstop = 4e-9;
    opt.probes = {nl.find_node("out"), nl.find_node("far"),
                  nl.find_node("out2"), nl.find_node("far2")};
    const TransientResult r = transient_analyze(nl, opt);
    EXPECT_LE(rel_error_vs_reference(r, kRefSupplyChain, 10), 1e-10);
    EXPECT_EQ(r.stats.step_rejections, 0u);
    EXPECT_EQ(r.stats.timestep_cuts, 0u);
}

TEST(TransientBorder, BitwiseIdenticalAcrossThreadCounts) {
    // The post-layout board: 55 drivers, hundreds of driver-edge refactors.
    const SsnModel model(std::make_shared<PlaneModel>(
        make_postlayout_board(1998), test::coarse_ssn()));
    TransientResult ref;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        test::ScopedThreadCount pin(threads);
        const TransientResult r = model.simulate(50e-12, 3e-9);
        if (threads == 1) {
            ref = r;
            continue;
        }
        EXPECT_TRUE(same_stats(r.stats, ref.stats)) << threads << " threads";
        ASSERT_EQ(r.samples.size(), ref.samples.size());
        for (std::size_t s = 0; s < r.samples.size(); ++s)
            ASSERT_EQ(std::memcmp(r.samples[s].data(), ref.samples[s].data(),
                                  r.samples[s].size() * sizeof(double)),
                      0)
                << threads << " threads, sample " << s;
    }
}

TEST(TransientBorder, InjectedLuPivotFaultRecoversWithBackwardEulerRetry) {
    const Netlist nl = test::border_vsource_netlist();
    const TransientResult clean = run_border_vsource(nl);

    // Factorizations 1 and 2 are the BE (step 1) and trapezoidal (step 2)
    // factors; the 3rd is the first driver-edge refactor at D1's rising
    // edge, on a trapezoidal step. The DC operating point is solved before
    // the fault is armed.
    TransientStepper st(nl, 10e-12);
    robust::FaultInjector::arm("lu.pivot", 3);
    std::vector<double> out;
    for (std::size_t s = 0; s < clean.samples.size() - 1; ++s) {
        st.step();
        out.push_back(st.node_voltage(nl.find_node("out")));
    }
    const std::uint64_t fired = robust::FaultInjector::fire_count("lu.pivot");
    robust::FaultInjector::disarm_all();
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(st.stats().step_rejections, 1u);
    EXPECT_EQ(st.stats().timestep_cuts, 0u);
    double err = 0;
    for (std::size_t s = 0; s < out.size(); ++s)
        err = std::max(err, std::abs(out[s] - clean.samples[s + 1][1]));
    EXPECT_LT(err, 0.05 * 3.3);
}

TEST(TransientBorder, InjectedLuPivotOnFirstStepCutsTimestepAndRebuildsCore) {
    const Netlist nl = test::border_vsource_netlist();
    const TransientResult clean = run_border_vsource(nl);

    // The 1st factorization is step 1's backward-Euler factor. Step 1 has
    // no trapezoidal try to reject, so the step is re-advanced with cut
    // substeps; the halved dt must invalidate the BE values assembled at the
    // full dt even though the integrator is the same.
    TransientStepper st(nl, 10e-12);
    robust::FaultInjector::arm("lu.pivot", 1);
    st.step();
    const std::uint64_t fired = robust::FaultInjector::fire_count("lu.pivot");
    robust::FaultInjector::disarm_all();
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(st.stats().step_rejections, 0u);
    EXPECT_EQ(st.stats().timestep_cuts, 1u);
    for (std::size_t s = 2; s < clean.samples.size(); ++s) st.step();
    // Nothing switches before 0.5 ns, so the substeps land on the same DC
    // state and the run rejoins the clean waveform.
    EXPECT_NEAR(st.node_voltage(nl.find_node("vcc")), clean.samples.back()[0],
                1e-9);
    EXPECT_NEAR(st.node_voltage(nl.find_node("out")), clean.samples.back()[1],
                1e-9);
}

TEST(TransientBorder, InjectedNewtonFaultRecoversThroughTimestepCut) {
    const Netlist nl = test::border_vsource_netlist();
    const TransientResult clean = run_border_vsource(nl);
    // Attempts 50 and 51 fail: the trapezoidal try and its BE retry, so the
    // step is re-advanced with cut backward-Euler substeps, whose changed dt
    // must reassemble and refactor (and again when dt is restored).
    robust::FaultInjector::arm("transient.newton", 50, 2);
    const TransientResult r = run_border_vsource(nl);
    robust::FaultInjector::disarm_all();
    EXPECT_EQ(r.stats.step_rejections, 1u);
    EXPECT_EQ(r.stats.timestep_cuts, 1u);
    EXPECT_EQ(r.recovery.count("transient.timestep_cut"), 1u);
    EXPECT_GT(r.stats.lu_factorizations, clean.stats.lu_factorizations);
    ASSERT_EQ(r.samples.size(), clean.samples.size());
    double err = 0;
    for (std::size_t s = 0; s < r.samples.size(); ++s)
        for (std::size_t k = 0; k < r.probes.size(); ++k)
            err = std::max(err, std::abs(r.samples[s][k] - clean.samples[s][k]));
    EXPECT_LT(err, 0.05 * 3.3);
}
